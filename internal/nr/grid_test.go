package nr

import (
	"testing"
	"testing/quick"

	"urllcsim/internal/sim"
)

func mustGrid(t *testing.T, c CommonConfig, guard int, label string) *Grid {
	t.Helper()
	g, err := BuildGrid(c, guard, label)
	if err != nil {
		t.Fatalf("BuildGrid(%s): %v", label, err)
	}
	return g
}

func dmGrid(t *testing.T) *Grid {
	return mustGrid(t, CommonConfig{Mu: Mu2, Pattern1: PatternDM(Mu2, 2, 10)}, 0, "DM")
}

func ddduGrid(t *testing.T) *Grid {
	return mustGrid(t, CommonConfig{Mu: Mu1, Pattern1: PatternDDDU(Mu1)}, 2, "DDDU")
}

func TestGridBasics(t *testing.T) {
	g := dmGrid(t)
	if g.NumSymbols() != 28 || g.Slots() != 2 {
		t.Fatalf("DM grid: %d symbols, %d slots", g.NumSymbols(), g.Slots())
	}
	if g.Period() != 500*sim.Microsecond {
		t.Fatalf("DM period = %v", g.Period())
	}
	if g.CountKind(SymDL) != 16 || g.CountKind(SymUL) != 10 || g.CountKind(SymGuard) != 2 {
		t.Fatalf("DM kinds: %dD %dU %dG", g.CountKind(SymDL), g.CountKind(SymUL), g.CountKind(SymGuard))
	}
}

func TestGridSymbolBoundariesExact(t *testing.T) {
	g := dmGrid(t)
	slot := int64(Mu2.SlotDuration()) // 250000 ns
	// Symbol 0 starts at 0; symbol 14 starts exactly at one slot.
	if got := g.SymbolStart(0); got != 0 {
		t.Fatalf("SymbolStart(0) = %v", got)
	}
	if got := g.SymbolStart(14); int64(got) != slot {
		t.Fatalf("SymbolStart(14) = %v, want %dns", got, slot)
	}
	if got := g.SymbolStart(28); int64(got) != 2*slot {
		t.Fatalf("SymbolStart(28) = %v, want %dns", got, 2*slot)
	}
	// Boundaries are non-decreasing and partition the slot.
	for i := int64(0); i < 28; i++ {
		if g.SymbolStart(i+1) <= g.SymbolStart(i) {
			t.Fatalf("symbol %d empty or inverted", i)
		}
	}
}

func TestGridNoDriftOverLongHorizons(t *testing.T) {
	g := ddduGrid(t)
	slotNs := int64(Mu1.SlotDuration())
	// After 10^6 slots, the slot boundary must still be exact.
	n := int64(1_000_000)
	if got := g.SymbolStart(n * 14); int64(got) != n*slotNs {
		t.Fatalf("slot %d boundary drifted: %v", n, got)
	}
}

func TestGridSymbolAtInvertsSymbolStart(t *testing.T) {
	g := dmGrid(t)
	for i := int64(0); i < 200; i++ {
		start := g.SymbolStart(i)
		if got := g.SymbolAt(start); got != i {
			t.Fatalf("SymbolAt(SymbolStart(%d)) = %d", i, got)
		}
		// A nanosecond before the boundary belongs to the previous symbol.
		if i > 0 {
			if got := g.SymbolAt(start - 1); got != i-1 {
				t.Fatalf("SymbolAt(start(%d)-1ns) = %d, want %d", i, got, i-1)
			}
		}
		mid := start.Add(g.Mu.SymbolDuration() / 2)
		if got := g.SymbolAt(mid); got != i {
			t.Fatalf("SymbolAt(mid of %d) = %d", i, got)
		}
	}
}

func TestGridPropertySymbolAtConsistent(t *testing.T) {
	g := ddduGrid(t)
	f := func(ns uint32) bool {
		tm := sim.Time(ns)
		i := g.SymbolAt(tm)
		return g.SymbolStart(i) <= tm && tm < g.SymbolStart(i+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestGridKindAt(t *testing.T) {
	g := dmGrid(t) // DDDDDDDDDDDDDD | DDGGUUUUUUUUUU, period 0.5ms
	slot := Mu2.SlotDuration()
	sym := slot / 14
	cases := []struct {
		t    sim.Time
		want SymbolKind
	}{
		{0, SymDL},
		{sim.Time(slot) - 1, SymDL},
		{sim.Time(slot), SymDL},                       // mixed slot, DL symbol 0
		{sim.Time(slot + 2*sym + 1), SymGuard},        // guard region
		{sim.Time(slot + 5*sym), SymUL},               // UL region
		{sim.Time(2*slot) - 1, SymUL},                 // last UL symbol
		{sim.Time(2 * slot), SymDL},                   // next period wraps
		{sim.Time(10*int64(g.Period())) + 100, SymDL}, // far future
	}
	for _, c := range cases {
		if got := g.KindAt(c.t); got != c.want {
			t.Errorf("KindAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestGridNextKindStart(t *testing.T) {
	g := dmGrid(t)
	slot := int64(Mu2.SlotDuration())
	ulStart := sim.Time(slot + 4*slot/14) // first UL symbol of mixed slot

	got, ok := g.NextKindStart(0, SymUL)
	if !ok || got != ulStart {
		t.Fatalf("NextKindStart(0, UL) = %v, want %v", got, ulStart)
	}
	// From inside the UL region, the next UL symbol starts immediately after.
	got, ok = g.NextKindStart(ulStart+1, SymUL)
	if !ok || got != sim.Time(slot+5*slot/14) {
		t.Fatalf("NextKindStart(inside UL) = %v", got)
	}
	// After the last UL symbol, the next UL is in the next period.
	lastUL := sim.Time(2 * slot)
	got, ok = g.NextKindStart(lastUL, SymUL)
	if !ok || got != ulStart+sim.Time(g.Period()) {
		t.Fatalf("NextKindStart(next period) = %v, want %v", got, ulStart+sim.Time(g.Period()))
	}
}

func TestGridNextKindStartMissingKind(t *testing.T) {
	g := UniformGrid(Mu1, SymDL, "DL-only")
	if _, ok := g.NextKindStart(0, SymUL); ok {
		t.Fatal("found UL in a DL-only grid")
	}
	if !g.HasKind(SymDL) || g.HasKind(SymUL) {
		t.Fatal("HasKind wrong for uniform grid")
	}
}

func TestGridFlexibleMatchesAnyKind(t *testing.T) {
	kinds := make([]SymbolKind, 14)
	for i := range kinds {
		kinds[i] = SymFlexible
	}
	g, err := MiniSlotGrid(MiniSlotConfig{Mu: Mu2, Length: 2}, kinds, "mini")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.NextKindStart(0, SymUL); !ok {
		t.Fatal("flexible symbols must satisfy UL queries")
	}
	if _, ok := g.NextKindStart(0, SymDL); !ok {
		t.Fatal("flexible symbols must satisfy DL queries")
	}
	if !g.HasKind(SymUL) {
		t.Fatal("HasKind must see flexible as potential UL")
	}
}

func TestGridSchedBoundaries(t *testing.T) {
	g := ddduGrid(t) // µ1, slot-based
	slot := sim.Time(Mu1.SlotDuration())
	if got := g.NextSchedBoundary(0); got != slot {
		t.Fatalf("NextSchedBoundary(0) = %v, want %v", got, slot)
	}
	if got := g.NextSchedBoundary(slot - 1); got != slot {
		t.Fatalf("NextSchedBoundary(slot-1) = %v", got)
	}
	if got := g.NextSchedBoundary(slot); got != 2*slot {
		t.Fatalf("NextSchedBoundary(slot) = %v (boundary must be strictly after)", got)
	}
}

func TestGridMiniSlotSchedBoundaries(t *testing.T) {
	kinds := make([]SymbolKind, 14)
	for i := range kinds {
		kinds[i] = SymFlexible
	}
	g, err := MiniSlotGrid(MiniSlotConfig{Mu: Mu2, Length: 2}, kinds, "mini")
	if err != nil {
		t.Fatal(err)
	}
	b1 := g.NextSchedBoundary(0)
	if b1 != g.SymbolStart(2) {
		t.Fatalf("mini-slot boundary = %v, want symbol 2 start %v", b1, g.SymbolStart(2))
	}
	b2 := g.NextSchedBoundary(b1)
	if b2 != g.SymbolStart(4) {
		t.Fatalf("second mini-slot boundary = %v", b2)
	}
	// Mini-slot boundaries are 7× denser than slot boundaries.
	count := 0
	for tm, end := sim.Time(0), sim.Time(Mu2.SlotDuration()); tm < end; {
		tm = g.NextSchedBoundary(tm)
		count++
	}
	if count != 7 {
		t.Fatalf("mini-slot boundaries per slot = %d, want 7", count)
	}
}

func TestGridRunOfKind(t *testing.T) {
	g := dmGrid(t)
	if run := g.RunOfKind(0, SymDL); run != 16 {
		t.Fatalf("DL run from 0 = %d, want 16", run)
	}
	if run := g.RunOfKind(18, SymUL); run != 10 {
		t.Fatalf("UL run from 18 = %d, want 10", run)
	}
	if run := g.RunOfKind(0, SymUL); run != 0 {
		t.Fatalf("UL run from 0 = %d, want 0", run)
	}
}

func TestGridNegativeTime(t *testing.T) {
	g := dmGrid(t)
	// The grid is periodic in both directions; negative times must resolve.
	if k := g.KindAt(sim.Time(-1)); k != SymUL {
		t.Fatalf("KindAt(-1ns) = %v, want U (end of previous period)", k)
	}
	if i := g.SymbolAt(sim.Time(-1)); i != -1 {
		t.Fatalf("SymbolAt(-1ns) = %d, want -1", i)
	}
}

func TestBuildGridRejectsInvalid(t *testing.T) {
	_, err := BuildGrid(CommonConfig{Mu: Mu1, Pattern1: Pattern{Period: 3 * sim.Millisecond}}, 0, "bad")
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := MiniSlotGrid(MiniSlotConfig{Mu: Mu2, Length: 3}, nil, "bad"); err == nil {
		t.Fatal("invalid mini-slot accepted")
	}
	if _, err := MiniSlotGrid(MiniSlotConfig{Mu: Mu2, Length: 2}, make([]SymbolKind, 13), "bad"); err == nil {
		t.Fatal("partial-slot mini grid accepted")
	}
	if _, err := MiniSlotGrid(MiniSlotConfig{Mu: Mu2, Length: 2}, nil, "bad"); err == nil {
		t.Fatal("empty mini grid accepted")
	}
	kinds := make([]SymbolKind, SymbolsPerSlot)
	for i := range kinds {
		kinds[i] = SymFlexible
	}
	kinds[5] = 'X'
	if _, err := MiniSlotGrid(MiniSlotConfig{Mu: Mu2, Length: 2}, kinds, "bad"); err == nil {
		t.Fatal("mini grid with an unknown symbol kind accepted")
	}
}
