package nr

import (
	"fmt"
	"strings"

	"urllcsim/internal/sim"
)

// Grid is the resolved symbol-level TDD timeline: one SymbolKind per OFDM
// symbol of one configuration period, repeating forever. Every latency
// question in this repository ("when is the next UL opportunity after t?")
// reduces to a Grid query.
//
// Symbol boundaries are computed with exact rational arithmetic
// (slot-relative position · slot duration / 14) so no rounding drift
// accumulates over arbitrarily long runs.
type Grid struct {
	Mu    Numerology
	Kinds []SymbolKind // one per symbol in the period

	// SchedSymbols is the scheduling granularity in symbols: scheduling
	// decisions (and the control information announcing them) happen at
	// boundaries that are multiples of this many symbols. 14 for slot-based
	// scheduling (the "once per slot" of §2); 2/4/7 for mini-slot.
	SchedSymbols int

	// Label identifies the configuration for reports ("DM", "DDDU", "FDD-DL"…).
	Label string
}

// BuildGrid renders a CommonConfig into a Grid. Patterns with an implicit
// D→U guard get guardSyms symbols stolen from the last DL slot (pass the
// UE/gNB switching time in symbols; 1–2 symbols is typical for FR1).
func BuildGrid(c CommonConfig, implicitGuard int, label string) (*Grid, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	kinds := c.Pattern1.Symbols(c.Mu, implicitGuard)
	if c.Pattern2 != nil {
		kinds = append(kinds, c.Pattern2.Symbols(c.Mu, implicitGuard)...)
	}
	return &Grid{Mu: c.Mu, Kinds: kinds, SchedSymbols: SymbolsPerSlot, Label: label}, nil
}

// UniformGrid returns a grid whose symbols are all of kind k over one slot —
// the building block for FDD (one all-DL grid plus one all-UL grid).
func UniformGrid(mu Numerology, k SymbolKind, label string) *Grid {
	kinds := make([]SymbolKind, SymbolsPerSlot)
	for i := range kinds {
		kinds[i] = k
	}
	return &Grid{Mu: mu, Kinds: kinds, SchedSymbols: SymbolsPerSlot, Label: label}
}

// MiniSlotGrid returns a grid for mini-slot operation: kinds as given but
// with scheduling granularity of cfg.Length symbols.
func MiniSlotGrid(cfg MiniSlotConfig, kinds []SymbolKind, label string) (*Grid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(kinds)%SymbolsPerSlot != 0 {
		return nil, fmt.Errorf("nr: mini-slot grid needs whole slots, got %d symbols", len(kinds))
	}
	return &Grid{Mu: cfg.Mu, Kinds: kinds, SchedSymbols: cfg.Length, Label: label}, nil
}

// NumSymbols returns the symbols per period.
func (g *Grid) NumSymbols() int { return len(g.Kinds) }

// Slots returns the slots per period.
func (g *Grid) Slots() int { return len(g.Kinds) / SymbolsPerSlot }

// Period returns the grid period.
func (g *Grid) Period() sim.Duration {
	return sim.Duration(g.Slots()) * g.Mu.SlotDuration()
}

// slotNs returns the slot duration in integer nanoseconds.
func (g *Grid) slotNs() int64 { return int64(g.Mu.SlotDuration()) }

// SymbolStart returns the absolute start time of global symbol index i
// (symbols are numbered from simulation time zero; the grid phase is locked
// to t=0). Exact: slot part uses integer slot durations, the intra-slot part
// is sym*slotNs/14 truncated — consistent for every query of the same symbol.
func (g *Grid) SymbolStart(i int64) sim.Time {
	slot := i / SymbolsPerSlot
	sym := i % SymbolsPerSlot
	if i < 0 && sym != 0 {
		slot--
		sym += SymbolsPerSlot
	}
	return sim.Time(slot*g.slotNs() + sym*g.slotNs()/SymbolsPerSlot)
}

// SymbolAt returns the global index of the symbol containing t.
func (g *Grid) SymbolAt(t sim.Time) int64 {
	ns := int64(t)
	slot := ns / g.slotNs()
	if ns < 0 && ns%g.slotNs() != 0 {
		slot--
	}
	rem := ns - slot*g.slotNs()
	// Locate the symbol within the slot; boundaries are sym*slotNs/14.
	sym := rem * SymbolsPerSlot / g.slotNs()
	if sym > SymbolsPerSlot-1 {
		sym = SymbolsPerSlot - 1
	}
	// Truncated boundaries can put t one symbol too high; correct downward.
	for sym > 0 && rem < sym*g.slotNs()/SymbolsPerSlot {
		sym--
	}
	// ... or one too low.
	for sym < SymbolsPerSlot-1 && rem >= (sym+1)*g.slotNs()/SymbolsPerSlot {
		sym++
	}
	return slot*SymbolsPerSlot + sym
}

// KindOfSymbol returns the kind of global symbol i.
func (g *Grid) KindOfSymbol(i int64) SymbolKind {
	n := int64(len(g.Kinds))
	m := i % n
	if m < 0 {
		m += n
	}
	return g.Kinds[m]
}

// KindAt returns the kind of the symbol containing t.
func (g *Grid) KindAt(t sim.Time) SymbolKind { return g.KindOfSymbol(g.SymbolAt(t)) }

// NextSymbolOfKind returns the global index of the first symbol of kind k
// whose start is at or after t. Flexible symbols match any kind (they can be
// resolved to it). Returns false if the grid contains no such symbol.
func (g *Grid) NextSymbolOfKind(t sim.Time, k SymbolKind) (int64, bool) {
	i := g.SymbolAt(t)
	if g.SymbolStart(i) < t {
		i++
	}
	n := int64(len(g.Kinds))
	for off := int64(0); off <= n; off++ {
		idx := i + off
		kind := g.KindOfSymbol(idx)
		if kind == k || kind == SymFlexible {
			return idx, true
		}
	}
	return 0, false
}

// NextKindStart returns the start time of the next symbol of kind k at or
// after t.
func (g *Grid) NextKindStart(t sim.Time, k SymbolKind) (sim.Time, bool) {
	i, ok := g.NextSymbolOfKind(t, k)
	if !ok {
		return 0, false
	}
	return g.SymbolStart(i), true
}

// RunOfKind returns the number of consecutive symbols of kind k (flexible
// counts) starting at global symbol i.
func (g *Grid) RunOfKind(i int64, k SymbolKind) int {
	n := 0
	for n < len(g.Kinds) {
		kind := g.KindOfSymbol(i + int64(n))
		if kind != k && kind != SymFlexible {
			break
		}
		n++
	}
	return n
}

// SlotStart returns the start of the slot containing t.
func (g *Grid) SlotStart(t sim.Time) sim.Time {
	ns := int64(t)
	slot := ns / g.slotNs()
	if ns < 0 && ns%g.slotNs() != 0 {
		slot--
	}
	return sim.Time(slot * g.slotNs())
}

// NextSchedBoundary returns the first scheduling instant strictly after t.
// Scheduling instants are starts of SchedSymbols-aligned symbol groups: slot
// boundaries for slot-based scheduling, mini-slot boundaries otherwise.
func (g *Grid) NextSchedBoundary(t sim.Time) sim.Time {
	i := g.SymbolAt(t)
	// Round i down to a scheduling boundary, then advance.
	b := i - mod64(i, int64(g.SchedSymbols))
	for {
		b += int64(g.SchedSymbols)
		if s := g.SymbolStart(b); s > t {
			return s
		}
	}
}

func mod64(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// HasKind reports whether the grid contains at least one symbol of kind k
// (or a flexible symbol, which could be resolved to k).
func (g *Grid) HasKind(k SymbolKind) bool {
	for _, kind := range g.Kinds {
		if kind == k || kind == SymFlexible {
			return true
		}
	}
	return false
}

// CountKind returns the number of symbols of exactly kind k per period.
func (g *Grid) CountKind(k SymbolKind) int {
	n := 0
	for _, kind := range g.Kinds {
		if kind == k {
			n++
		}
	}
	return n
}

// String renders one period, one letter per symbol, slot-separated.
func (g *Grid) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%v ", g.Label, g.Mu)
	for i, k := range g.Kinds {
		if i > 0 && i%SymbolsPerSlot == 0 {
			b.WriteByte('|')
		}
		b.WriteByte(byte(k))
	}
	b.WriteByte(']')
	return b.String()
}
