//go:build race

package core

// Under the race detector sync.Pool drops a quarter of what it is given, so
// a pin on how little a warm home-step allocates cannot hold.
func init() { raceEnabled = true }
