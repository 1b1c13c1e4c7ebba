package datapath

// CallsInProgress reports how many calls into dp are in progress, for the
// tests of package datapath_test.
func CallsInProgress(dp *Datapath) uint32 { return inProgress(dp.in.calls.Load()) }
