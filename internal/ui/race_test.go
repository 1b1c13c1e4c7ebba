//go:build race

package ui

// Under the race detector sync.Pool drops a quarter of what it is given, so
// a pin on how little a warm display tick allocates cannot hold.
func init() { raceEnabled = true }
