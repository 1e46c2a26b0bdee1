//go:build !race

package pbio_test

const raceEnabled = false
