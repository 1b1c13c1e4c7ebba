//go:build race

package openflow

// The match rule is a pure function with nothing for the race detector to
// find, and the detector slows it some fifteen times over.
func init() { raceEnabled = true }
