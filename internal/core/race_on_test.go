//go:build race

package core_test

// raceEnabled: under the race detector sync.Pool drops a random share of
// the values put back, so a lane that reuses pooled memory allocates more.
const raceEnabled = true
