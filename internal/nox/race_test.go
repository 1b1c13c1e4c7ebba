//go:build race

package nox

// Under the race detector sync.Pool drops a quarter of what it is given, so
// a pin on how little a warm pool allocates cannot hold.
func init() { raceEnabled = true }
