//go:build !race

package cell

// raceEnabled reports a -race build, whose runtime adds allocations of its
// own to the ones the counted observer-tax bound measures.
const raceEnabled = false
