//go:build race

package pbio_test

// raceEnabled: the race detector turns off the allocator's packing of tiny
// objects, so each short field name takes a block of its own and heap sizes
// stop matching a normal build.
const raceEnabled = true
