//go:build !race

package wave

// raceEnabled reports whether the race detector is on; it adds a varying
// number of allocations of its own to the calls it instruments.
const raceEnabled = false
