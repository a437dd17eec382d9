//go:build race

package obs

// raceEnabled reports a -race build, whose runtime adds allocations of its
// own to the ones the exact benchmark pins count.
const raceEnabled = true
