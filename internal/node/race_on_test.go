//go:build race

package node

// raceEnabled reports a -race build, whose runtime adds allocations of its
// own to the ones the exact per-packet pins count.
const raceEnabled = true
