//go:build !race

package urllcsim_test

// raceEnabled reports a -race build, whose runtime adds allocations of its
// own to the ones the counted observer-tax bound measures.
const raceEnabled = false
