package core

import (
	"testing"

	"urllcsim/internal/nr"
)

// The analytic engine's micro-benchmarks. Each op body runs both under
// `go test -bench` and under the exact allocation pin below.

// worstCaseOp returns one WorstCaseEngine op: the analytic worst-case walk
// of grant-based UL on the DM configuration.
func worstCaseOp(tb testing.TB) func() {
	cfg := ConfigDM(nr.Mu2, DefaultAssumptions())
	return func() {
		if _, err := cfg.WorstCase(GrantBasedUL); err != nil {
			tb.Fatal(err)
		}
	}
}

// table1Op returns one Table1 op: the full feasibility matrix.
func table1Op(tb testing.TB) func() {
	return func() {
		if _, err := Table1(); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkWorstCaseEngine(b *testing.B) {
	b.ReportAllocs()
	op := worstCaseOp(b)
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "walks/sec")
}

func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	op := table1Op(b)
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestWorstCaseZeroAlloc: the worst-case walk allocates nothing.
func TestWorstCaseZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(100, worstCaseOp(t)); n != 0 {
		t.Fatalf("WorstCaseEngine: %v allocs/op, want 0", n)
	}
}

// TestTable1Allocs pins the feasibility matrix's allocations per op at their
// measured count; a rise fails.
func TestTable1Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race adds allocations of its own")
	}
	if n := testing.AllocsPerRun(20, table1Op(t)); n > 31 {
		t.Fatalf("Table1: %v allocs/op, want ≤ 31", n)
	}
}
