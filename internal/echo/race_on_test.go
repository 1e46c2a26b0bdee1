//go:build race

package echo

// raceEnabled: under the race detector sync.Pool deliberately drops a quarter
// of its Puts, so the frame-buffer pool refills by allocating and allocation
// counts stop meaning anything.
const raceEnabled = true
