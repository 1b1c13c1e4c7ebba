//go:build race

package hwdb

// Under the race detector sync.Pool drops a quarter of what it is given, so
// a pin on how little a warm select allocates cannot hold.
func init() { raceEnabled = true }
