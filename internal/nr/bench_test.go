package nr

import (
	"testing"

	"urllcsim/internal/sim"
)

// The grid's micro-benchmark. Its op runs both under `go test -bench` and
// under the exact allocation pin below.

// gridQueriesOp returns one GridQueries op: the packet path's grid queries
// (SR opportunity, DL-capable check, scheduling boundary, next UL slot and
// its UL region) at 64 instants spread over 16 periods of the DDDU testbed
// grid.
func gridQueriesOp(tb testing.TB) func() {
	g, err := BuildGrid(CommonConfig{Mu: Mu1, Pattern1: PatternDDDU(Mu1)}, 2, "DDDU")
	if err != nil {
		tb.Fatal(err)
	}
	const instants = 64
	step := 16 * g.Period() / instants
	return func() {
		for k := 0; k < instants; k++ {
			t := sim.Time(int64(k)*int64(step) + 337*int64(sim.Microsecond))
			if _, ok := g.NextKindStart(t, SymUL); !ok {
				tb.Fatal("no UL symbol")
			}
			g.RunOfKind(g.SymbolAt(t), SymDL)
			g.NextSchedBoundary(t)
			slot, ok := g.NextULSlot(t)
			if !ok {
				tb.Fatal("no UL slot")
			}
			if _, syms := g.ULSymbolsOfSlot(slot); syms == 0 {
				tb.Fatal("UL slot without UL symbols")
			}
		}
	}
}

func BenchmarkGridQueries(b *testing.B) {
	b.ReportAllocs()
	op := gridQueriesOp(b)
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestGridQueriesZeroAlloc: the grid queries allocate nothing.
func TestGridQueriesZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(100, gridQueriesOp(t)); n != 0 {
		t.Fatalf("GridQueries: %v allocs/op, want 0", n)
	}
}
