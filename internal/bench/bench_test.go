package bench

import (
	"runtime"
	"testing"

	"urllcsim/internal/obs"
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

// TestLabeledRegistryWholeCount: every LabeledRegistry op allocates the
// same count, so the allocs/op testing reports (total mallocs ÷ b.N,
// rounded down) is that count at any b.N, and the exact gate cannot flip
// between two readings.
func TestLabeledRegistryWholeCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rec := obs.NewRecorder()
	labeledOp(rec)
	var counts []uint64
	for i := 0; i < 8; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		labeledOp(rec)
		runtime.ReadMemStats(&after)
		counts = append(counts, after.Mallocs-before.Mallocs)
	}
	for _, c := range counts {
		if c != counts[0] {
			t.Fatalf("allocations per op differ between ops: %v", counts)
		}
	}
	t.Logf("%d allocations per op", counts[0])
}
