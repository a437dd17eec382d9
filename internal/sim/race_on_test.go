//go:build race

package sim

// raceEnabled reports a -race build, whose runtime adds allocations of its
// own to the ones the exact benchmark pins count.
const raceEnabled = true
