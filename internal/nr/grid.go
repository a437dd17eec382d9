package nr

import (
	"fmt"

	"urllcsim/internal/sim"
)

// Grid is the resolved symbol-level TDD timeline: one SymbolKind per OFDM
// symbol of one configuration period, repeating forever. Every latency
// question in this repository ("when is the next UL opportunity after t?")
// reduces to a Grid query.
//
// The period is indexed once, when the grid is built, and the index is the
// grid's only per-symbol state: every query is a floor division to a
// global symbol or slot, one modulo into the period and one table load.
//
// Symbol boundaries are computed with exact rational arithmetic
// (slot-relative position · slot duration / 14) so no rounding drift
// accumulates over arbitrarily long runs.
type Grid struct {
	Mu Numerology

	// SchedSymbols is the scheduling granularity in symbols: scheduling
	// decisions (and the control information announcing them) happen at
	// boundaries that are multiples of this many symbols. 14 for slot-based
	// scheduling (the "once per slot" of §2); 2/4/7 for mini-slot.
	SchedSymbols int

	// Label identifies the configuration for reports ("DM", "DDDU", "FDD-DL"…).
	Label string

	syms   int   // symbols per period
	slotNs int64 // slot duration in nanoseconds

	// index holds one symbol word per symbol of the period followed by one
	// slot word per slot of the period.
	//
	// A symbol word carries the symbol's kind code in its low kindBits and,
	// for each kind code c, the offset in symbols from this symbol to the
	// next symbol of exactly that kind (0 for its own kind, noneOff when the
	// period has none) in the offBits-wide field at symShift(c).
	//
	// A slot word carries the slot's first UL-capable (UL or flexible)
	// symbol in its low 4 bits, its count of UL-capable symbols in the 4 at
	// ulCountShift, and from slotOffShift up the offset in slots to the next
	// slot with any UL-capable symbol (0 for this one; noneOff when there is
	// none).
	index []uint64
}

// Kind codes: the symbol-word encoding of the four symbol kinds.
const (
	codeDL = iota
	codeUL
	codeGuard
	codeFlex
	numCodes
)

var kindOfCode = [numCodes]SymbolKind{SymDL, SymUL, SymGuard, SymFlexible}

const (
	kindBits     = 2
	kindMask     = 1<<kindBits - 1
	offBits      = 15
	noneOff      = 1<<offBits - 1
	ulCountShift = 4
	nibble       = 1<<4 - 1
	slotOffShift = 8

	// maxPeriodSymbols bounds a period so every offset fits its field. The
	// longest Common Configuration (two 10 ms patterns at µ6) has 17920.
	maxPeriodSymbols = noneOff
)

func symShift(c int) uint { return kindBits + offBits*uint(c) }

// codeOf returns k's kind code. A kind that is none of D/U/G matches only
// flexible symbols, exactly as the flexible kind does.
func codeOf(k SymbolKind) int {
	switch k {
	case SymDL:
		return codeDL
	case SymUL:
		return codeUL
	case SymGuard:
		return codeGuard
	}
	return codeFlex
}

// off returns symbol word w's offset to the next symbol of exactly code c.
func off(w uint64, c int) int { return int(w>>symShift(c)) & noneOff }

// nextOff returns the offset from symbol word w to the next symbol that
// serves kind code c: one of that kind or a flexible one (noneOff if none).
func nextOff(w uint64, c int) int { return min(off(w, c), off(w, codeFlex)) }

// BuildGrid renders a CommonConfig into a Grid. Patterns with an implicit
// D→U guard get guardSyms symbols stolen from the last DL slot (pass the
// UE/gNB switching time in symbols; 1–2 symbols is typical for FR1).
func BuildGrid(c CommonConfig, implicitGuard int, label string) (*Grid, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	p1, p2 := c.Pattern1, c.Pattern2
	n1 := p1.Slots(c.Mu) * SymbolsPerSlot
	n := n1
	if p2 != nil {
		n += p2.Slots(c.Mu) * SymbolsPerSlot
	}
	return newGrid(c.Mu, n, SymbolsPerSlot, label, func(i int) SymbolKind {
		if i < n1 {
			return p1.kindOf(i, implicitGuard)
		}
		return p2.kindOf(i-n1, implicitGuard)
	}), nil
}

// UniformGrid returns a grid whose symbols are all of kind k over one slot —
// the building block for FDD (one all-DL grid plus one all-UL grid).
func UniformGrid(mu Numerology, k SymbolKind, label string) *Grid {
	return newGrid(mu, SymbolsPerSlot, SymbolsPerSlot, label, func(int) SymbolKind { return k })
}

// MiniSlotGrid returns a grid for mini-slot operation: kinds as given but
// with scheduling granularity of cfg.Length symbols. The grid keeps no
// reference to kinds.
func MiniSlotGrid(cfg MiniSlotConfig, kinds []SymbolKind, label string) (*Grid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(kinds) == 0 || len(kinds)%SymbolsPerSlot != 0 {
		return nil, fmt.Errorf("nr: mini-slot grid needs whole slots, got %d symbols", len(kinds))
	}
	if len(kinds) > maxPeriodSymbols {
		return nil, fmt.Errorf("nr: mini-slot grid of %d symbols exceeds %d", len(kinds), maxPeriodSymbols)
	}
	for i, k := range kinds {
		if kindOfCode[codeOf(k)] != k {
			return nil, fmt.Errorf("nr: mini-slot symbol %d has unknown kind %q", i, byte(k))
		}
	}
	return newGrid(cfg.Mu, len(kinds), cfg.Length, label, func(i int) SymbolKind { return kinds[i] }), nil
}

// newGrid indexes one period of n symbols (whole slots, n ≤
// maxPeriodSymbols) whose kinds kindAt returns.
func newGrid(mu Numerology, n, schedSymbols int, label string, kindAt func(i int) SymbolKind) *Grid {
	slots := n / SymbolsPerSlot
	index := make([]uint64, n+slots)
	syms, slotWords := index[:n], index[n:]
	// nextAt[c] is the index of the next symbol of code c at or after the
	// one being indexed, seeded with the code's first symbol one period on
	// (-1 when the period has none).
	nextAt := [numCodes]int{-1, -1, -1, -1}
	for i := n - 1; i >= 0; i-- {
		c := codeOf(kindAt(i))
		syms[i] = uint64(c)
		nextAt[c] = i + n
	}
	for i := n - 1; i >= 0; i-- {
		w := syms[i]
		nextAt[w] = i
		for c := 0; c < numCodes; c++ {
			o := noneOff
			if at := nextAt[c]; at >= 0 {
				o = at - i
			}
			w |= uint64(o) << symShift(c)
		}
		syms[i] = w
	}
	nextUL := -1 // the same for slots with a UL-capable symbol
	for s := slots - 1; s >= 0; s-- {
		first, count := 0, 0
		for k := SymbolsPerSlot - 1; k >= 0; k-- {
			if c := syms[s*SymbolsPerSlot+k] & kindMask; c == codeUL || c == codeFlex {
				first = k
				count++
			}
		}
		slotWords[s] = uint64(first) | uint64(count)<<ulCountShift
		if count > 0 {
			nextUL = s + slots
		}
	}
	for s := slots - 1; s >= 0; s-- {
		if slotWords[s]>>ulCountShift&nibble > 0 {
			nextUL = s
		}
		o := noneOff
		if nextUL >= 0 {
			o = nextUL - s
		}
		slotWords[s] |= uint64(o) << slotOffShift
	}
	return &Grid{Mu: mu, SchedSymbols: schedSymbols, Label: label,
		syms: n, slotNs: int64(mu.SlotDuration()), index: index}
}

// symWord returns the symbol word of global symbol i.
func (g *Grid) symWord(i int64) uint64 { return g.index[mod64(i, int64(g.syms))] }

// slotWord returns the slot word of global slot s.
func (g *Grid) slotWord(s int64) uint64 {
	return g.index[g.syms+int(mod64(s, int64(g.syms/SymbolsPerSlot)))]
}

// NumSymbols returns the symbols per period.
func (g *Grid) NumSymbols() int { return g.syms }

// Slots returns the slots per period.
func (g *Grid) Slots() int { return g.syms / SymbolsPerSlot }

// Period returns the grid period.
func (g *Grid) Period() sim.Duration {
	return sim.Duration(g.Slots()) * g.Mu.SlotDuration()
}

// SymbolStart returns the absolute start time of global symbol i
// (symbols are numbered from simulation time zero; the grid phase is locked
// to t=0). Exact: slot part uses integer slot durations, the intra-slot part
// is sym*slotNs/14 truncated — consistent for every query of the same symbol.
func (g *Grid) SymbolStart(i int64) sim.Time {
	slot := floorDiv(i, SymbolsPerSlot)
	sym := i - slot*SymbolsPerSlot
	return sim.Time(slot*g.slotNs + sym*g.slotNs/SymbolsPerSlot)
}

// SymbolAt returns the global index of the symbol containing t.
func (g *Grid) SymbolAt(t sim.Time) int64 {
	slot := floorDiv(int64(t), g.slotNs)
	rem := int64(t) - slot*g.slotNs
	// Symbol k of a slot starts at ⌊k·slotNs/14⌋, so the one holding rem is
	// the largest k with k·slotNs ≤ 14·rem + 13.
	return slot*SymbolsPerSlot + (SymbolsPerSlot*rem+SymbolsPerSlot-1)/g.slotNs
}

// KindOfSymbol returns the kind of global symbol i.
func (g *Grid) KindOfSymbol(i int64) SymbolKind {
	return kindOfCode[g.symWord(i)&kindMask]
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
	o := nextOff(g.symWord(i), codeOf(k))
	if o == noneOff {
		return 0, false
	}
	return i + int64(o), true
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
// counts) starting at global symbol i, at most one period.
func (g *Grid) RunOfKind(i int64, k SymbolKind) int {
	// The run ends at the nearest symbol of a kind that does not serve k.
	w, c, run := g.symWord(i), codeOf(k), g.syms
	for other := 0; other < codeFlex; other++ {
		if other != c {
			run = min(run, off(w, other))
		}
	}
	return run
}

// NextULSlot returns the start of the first slot at or after t that contains
// UL (or flexible) symbols; false if the grid has none.
func (g *Grid) NextULSlot(t sim.Time) (sim.Time, bool) {
	s := -floorDiv(-int64(t), g.slotNs) // first slot starting at or after t
	o := g.slotWord(s) >> slotOffShift
	if o == noneOff {
		return 0, false
	}
	return sim.Time((s + int64(o)) * g.slotNs), true
}

// ULSymbolsOfSlot returns how many UL (or flexible) symbols the slot
// containing t carries and the start of its first one (for mixed slots the
// UL region starts mid-slot); zero values when it carries none.
func (g *Grid) ULSymbolsOfSlot(t sim.Time) (start sim.Time, syms int) {
	s := floorDiv(int64(t), g.slotNs)
	w := g.slotWord(s)
	if syms = int(w >> ulCountShift & nibble); syms == 0 {
		return 0, 0
	}
	return g.SymbolStart(s*SymbolsPerSlot + int64(w&nibble)), syms
}

// NextSchedBoundary returns the first scheduling instant strictly after t.
// Scheduling instants are starts of SchedSymbols-aligned symbol groups: slot
// boundaries for slot-based scheduling, mini-slot boundaries otherwise.
func (g *Grid) NextSchedBoundary(t sim.Time) sim.Time {
	i := g.SymbolAt(t)
	// The group holding symbol i ends after it, and symbol i+1 already
	// starts after t.
	return g.SymbolStart(i - mod64(i, int64(g.SchedSymbols)) + int64(g.SchedSymbols))
}

func mod64(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// floorDiv returns ⌊a/b⌋ for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// HasKind reports whether the grid contains at least one symbol of kind k
// (or a flexible symbol, which could be resolved to k).
func (g *Grid) HasKind(k SymbolKind) bool {
	return nextOff(g.index[0], codeOf(k)) != noneOff
}

// CountKind returns the number of symbols of exactly kind k per period.
func (g *Grid) CountKind(k SymbolKind) int {
	n := 0
	for i := 0; i < g.syms; i++ {
		if g.KindOfSymbol(int64(i)) == k {
			n++
		}
	}
	return n
}
