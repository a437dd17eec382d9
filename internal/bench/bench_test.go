package bench

import (
	"testing"

	"urllcsim/internal/sim"
)

// TestRunReportsBooksMismatch: an entry whose engine books disagree with its
// script fails, and Run's error carries the counts, not only the entry's
// name — testing.Benchmark itself discards the failure's log.
func TestRunReportsBooksMismatch(t *testing.T) {
	bm := Benchmark{Name: "Mismatch", F: func(b *testing.B) {
		eng := sim.NewEngine()
		for j := 0; j < 3; j++ {
			eng.Schedule(sim.Time(j), "e", func() {})
		}
		eng.RunAll()
		checkBooks(b, eng, engineBooks{}, engineBooks{pushes: 3, pops: 4, steps: 3})
	}}
	_, err := bm.Run()
	if err == nil {
		t.Fatal("a books mismatch ran clean")
	}
	want := "Mismatch: engine books moved {pushes:3 pops:3 cancels:0 steps:3} in one op, want {pushes:3 pops:4 cancels:0 steps:3}"
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}
