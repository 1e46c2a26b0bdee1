//go:build !race

package echo

const raceEnabled = false
