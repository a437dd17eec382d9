//go:build !race

package analyze_test

// raceEnabled reports a -race build, whose runtime adds allocations of its
// own to the ones the exact benchmark pins count.
const raceEnabled = false
