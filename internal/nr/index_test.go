package nr_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"urllcsim/internal/core"
	"urllcsim/internal/nr"
	"urllcsim/internal/sim"
)

// walk is the brute-force reference for the indexed grid: each query
// answered by the per-symbol and per-slot loops over an explicit kinds slice
// that the grid and the scheduler ran before the period was indexed.
type walk struct {
	kinds  []nr.SymbolKind
	slotNs int64
	sched  int
}

func walkOf(g *nr.Grid, kinds []nr.SymbolKind) walk {
	return walk{kinds: kinds, slotNs: int64(g.Mu.SlotDuration()), sched: g.SchedSymbols}
}

func (w walk) symbolStart(i int64) sim.Time {
	slot := i / nr.SymbolsPerSlot
	sym := i % nr.SymbolsPerSlot
	if i < 0 && sym != 0 {
		slot--
		sym += nr.SymbolsPerSlot
	}
	return sim.Time(slot*w.slotNs + sym*w.slotNs/nr.SymbolsPerSlot)
}

func (w walk) symbolAt(t sim.Time) int64 {
	ns := int64(t)
	slot := ns / w.slotNs
	if ns < 0 && ns%w.slotNs != 0 {
		slot--
	}
	rem := ns - slot*w.slotNs
	sym := rem * nr.SymbolsPerSlot / w.slotNs
	if sym > nr.SymbolsPerSlot-1 {
		sym = nr.SymbolsPerSlot - 1
	}
	for sym > 0 && rem < sym*w.slotNs/nr.SymbolsPerSlot {
		sym--
	}
	for sym < nr.SymbolsPerSlot-1 && rem >= (sym+1)*w.slotNs/nr.SymbolsPerSlot {
		sym++
	}
	return slot*nr.SymbolsPerSlot + sym
}

func (w walk) kindOfSymbol(i int64) nr.SymbolKind {
	n := int64(len(w.kinds))
	m := i % n
	if m < 0 {
		m += n
	}
	return w.kinds[m]
}

func (w walk) nextSymbolOfKind(t sim.Time, k nr.SymbolKind) (int64, bool) {
	i := w.symbolAt(t)
	if w.symbolStart(i) < t {
		i++
	}
	for off := int64(0); off <= int64(len(w.kinds)); off++ {
		if kind := w.kindOfSymbol(i + off); kind == k || kind == nr.SymFlexible {
			return i + off, true
		}
	}
	return 0, false
}

func (w walk) runOfKind(i int64, k nr.SymbolKind) int {
	n := 0
	for n < len(w.kinds) {
		kind := w.kindOfSymbol(i + int64(n))
		if kind != k && kind != nr.SymFlexible {
			break
		}
		n++
	}
	return n
}

func (w walk) slotStart(t sim.Time) sim.Time {
	ns := int64(t)
	slot := ns / w.slotNs
	if ns < 0 && ns%w.slotNs != 0 {
		slot--
	}
	return sim.Time(slot * w.slotNs)
}

func (w walk) nextSchedBoundary(t sim.Time) sim.Time {
	i := w.symbolAt(t)
	m := i % int64(w.sched)
	if m < 0 {
		m += int64(w.sched)
	}
	for b := i - m; ; {
		b += int64(w.sched)
		if s := w.symbolStart(b); s > t {
			return s
		}
	}
}

func (w walk) ulSymbolsOfSlot(t sim.Time) (start sim.Time, syms int) {
	base := w.symbolAt(w.slotStart(t))
	for k := int64(0); k < nr.SymbolsPerSlot; k++ {
		if kind := w.kindOfSymbol(base + k); kind == nr.SymUL || kind == nr.SymFlexible {
			if syms == 0 {
				start = w.symbolStart(base + k)
			}
			syms++
		}
	}
	return start, syms
}

func (w walk) nextULSlot(t sim.Time) (sim.Time, bool) {
	start := w.slotStart(t)
	if start < t {
		start += sim.Time(w.slotNs)
	}
	for i := 0; i <= len(w.kinds)/nr.SymbolsPerSlot+1; i++ {
		slot := start + sim.Time(int64(i)*w.slotNs)
		if _, syms := w.ulSymbolsOfSlot(slot); syms > 0 {
			return slot, true
		}
	}
	return 0, false
}

var allKinds = []nr.SymbolKind{nr.SymDL, nr.SymUL, nr.SymGuard, nr.SymFlexible}

// compareAt reports the first indexed query at instant t that disagrees
// with the reference walk.
func compareAt(g *nr.Grid, w walk, t sim.Time) error {
	i := w.symbolAt(t)
	if got := g.SymbolAt(t); got != i {
		return fmt.Errorf("SymbolAt(%d) = %d, walk %d", t, got, i)
	}
	if got, want := g.SymbolStart(i), w.symbolStart(i); got != want {
		return fmt.Errorf("SymbolStart(%d) = %d, walk %d", i, got, want)
	}
	if got, want := g.KindOfSymbol(i), w.kindOfSymbol(i); got != want {
		return fmt.Errorf("KindOfSymbol(%d) = %v, walk %v", i, got, want)
	}
	for _, k := range allKinds {
		gi, gok := g.NextSymbolOfKind(t, k)
		wi, wok := w.nextSymbolOfKind(t, k)
		if gi != wi || gok != wok {
			return fmt.Errorf("NextSymbolOfKind(%d, %v) = %d,%v, walk %d,%v", t, k, gi, gok, wi, wok)
		}
		if got, want := g.RunOfKind(i, k), w.runOfKind(i, k); got != want {
			return fmt.Errorf("RunOfKind(%d, %v) = %d, walk %d", i, k, got, want)
		}
	}
	if got, want := g.NextSchedBoundary(t), w.nextSchedBoundary(t); got != want {
		return fmt.Errorf("NextSchedBoundary(%d) = %d, walk %d", t, got, want)
	}
	gs, gok := g.NextULSlot(t)
	ws, wok := w.nextULSlot(t)
	if gs != ws || gok != wok {
		return fmt.Errorf("NextULSlot(%d) = %d,%v, walk %d,%v", t, gs, gok, ws, wok)
	}
	gStart, gSyms := g.ULSymbolsOfSlot(t)
	wStart, wSyms := w.ulSymbolsOfSlot(t)
	if gStart != wStart || gSyms != wSyms {
		return fmt.Errorf("ULSymbolsOfSlot(%d) = %d,%d, walk %d,%d", t, gStart, gSyms, wStart, wSyms)
	}
	return nil
}

// comparePeriodwide checks the per-grid queries against kinds.
func comparePeriodwide(g *nr.Grid, kinds []nr.SymbolKind) error {
	if g.NumSymbols() != len(kinds) {
		return fmt.Errorf("NumSymbols = %d, want %d", g.NumSymbols(), len(kinds))
	}
	for _, k := range allKinds {
		has, count := false, 0
		for _, kind := range kinds {
			has = has || kind == k || kind == nr.SymFlexible
			if kind == k {
				count++
			}
		}
		if g.HasKind(k) != has || g.CountKind(k) != count {
			return fmt.Errorf("HasKind/CountKind(%v) = %v/%d, want %v/%d", k, g.HasKind(k), g.CountKind(k), has, count)
		}
	}
	return nil
}

// periodKinds reads one period of g's kinds.
func periodKinds(g *nr.Grid) []nr.SymbolKind {
	kinds := make([]nr.SymbolKind, g.NumSymbols())
	for i := range kinds {
		kinds[i] = g.KindOfSymbol(int64(i))
	}
	return kinds
}

// patternKinds renders a Common Configuration slot by slot, the way the
// grid rendered its patterns before it was indexed.
func patternKinds(c nr.CommonConfig, implicitGuard int) []nr.SymbolKind {
	var syms []nr.SymbolKind
	for _, p := range []*nr.Pattern{&c.Pattern1, c.Pattern2} {
		if p == nil {
			continue
		}
		base := len(syms)
		for i := 0; i < p.DLSlots*nr.SymbolsPerSlot; i++ {
			syms = append(syms, nr.SymDL)
		}
		if p.HasMixedSlot() {
			for s := 0; s < p.DLSymbols; s++ {
				syms = append(syms, nr.SymDL)
			}
			for s := 0; s < p.GuardSymbols(); s++ {
				syms = append(syms, nr.SymGuard)
			}
			for s := 0; s < p.ULSymbols; s++ {
				syms = append(syms, nr.SymUL)
			}
		}
		for i := 0; i < p.ULSlots*nr.SymbolsPerSlot; i++ {
			syms = append(syms, nr.SymUL)
		}
		if implicitGuard > 0 && p.DLSlots > 0 && p.ULSlots > 0 && !p.HasMixedSlot() {
			last := base + p.DLSlots*nr.SymbolsPerSlot
			for s := last - implicitGuard; s < last; s++ {
				if s >= base {
					syms[s] = nr.SymGuard
				}
			}
		}
	}
	return syms
}

// kindsOf parses one letter per symbol, '|' ignored.
func kindsOf(s string) []nr.SymbolKind {
	var kinds []nr.SymbolKind
	for i := 0; i < len(s); i++ {
		if s[i] != '|' {
			kinds = append(kinds, nr.SymbolKind(s[i]))
		}
	}
	return kinds
}

type gridCase struct {
	name  string
	g     *nr.Grid
	kinds []nr.SymbolKind
}

func gridCases(t *testing.T) []gridCase {
	var cases []gridCase
	add := func(name string, g *nr.Grid, kinds []nr.SymbolKind) {
		cases = append(cases, gridCase{name, g, kinds})
	}
	as := core.DefaultAssumptions()
	// The two-slot Table 1 periods are allowed at µ0–µ2, DDDU's four slots
	// at µ1–µ3.
	for _, mu := range []nr.Numerology{nr.Mu0, nr.Mu1, nr.Mu2, nr.Mu3} {
		var cfgs []core.Config
		if mu <= nr.Mu2 {
			cfgs = append(core.Table1Configs(mu, as), core.ConfigDMSplit(mu, 2, 10, as))
		}
		if mu >= nr.Mu1 {
			cfgs = append(cfgs, core.ConfigDDDU(mu, as))
		}
		for _, c := range cfgs {
			add(fmt.Sprintf("%s/%v/DL", c.Name, mu), c.DL, periodKinds(c.DL))
			if c.UL != c.DL {
				add(fmt.Sprintf("%s/%v/UL", c.Name, mu), c.UL, periodKinds(c.UL))
			}
		}
	}
	mixed := kindsOf("DDDDDDDFFGGUUU|UUUUUUUUUUUUUU|FFFFFFFFFFFFFF")
	ulFirst := kindsOf("UUUUUUUUUUUUUU|DDDDDDDDDDDDDD|GGGGGGGGGGGGGG") // UL wraps
	for _, l := range nr.MiniSlotLengths {
		for _, kinds := range [][]nr.SymbolKind{kindsOf("FFFFFFFFFFFFFF"), mixed, ulFirst} {
			g, err := nr.MiniSlotGrid(nr.MiniSlotConfig{Mu: nr.Mu2, Length: l}, kinds, "mini")
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("mini-%d/%d", l, len(kinds)), g, kinds)
		}
	}
	add("FDD-DL", nr.UniformGrid(nr.Mu1, nr.SymDL, "FDD-DL"), kindsOf("DDDDDDDDDDDDDD"))
	add("FDD-UL", nr.UniformGrid(nr.Mu1, nr.SymUL, "FDD-UL"), kindsOf("UUUUUUUUUUUUUU"))
	for _, s := range []string{"DDSU", "DDDSU", "DSUU", "DU", "DDDU", "DDDDDDDSUU", "SUUU", "DDDS", "DS"} {
		p, err := nr.ParsePattern(s, nr.Mu1, 6, 6)
		if err != nil {
			t.Fatal(err)
		}
		g, err := nr.ParseGrid(s, nr.Mu1, 6, 6, 2)
		if err != nil {
			t.Fatal(err)
		}
		add(s, g, patternKinds(nr.CommonConfig{Mu: nr.Mu1, Pattern1: p}, 2))
	}
	p2, err := nr.ParsePattern("DSUU", nr.Mu2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	two := nr.CommonConfig{Mu: nr.Mu2, Pattern1: nr.PatternDDDU(nr.Mu2), Pattern2: &p2}
	g, err := nr.BuildGrid(two, 1, "DDDU+DSUU")
	if err != nil {
		t.Fatal(err)
	}
	add("DDDU+DSUU", g, patternKinds(two, 1))
	return cases
}

// TestGridIndexMatchesWalk: every indexed query equals the brute-force walk
// at every symbol start and ±1 ns around it, over three periods from one
// period before t=0, on every Table 1 configuration (µ0–µ2) and DDDU
// (µ1–µ3), mini-slot
// grids at each length, the FDD pair and parsed custom patterns (one of
// them a two-pattern Common Configuration).
func TestGridIndexMatchesWalk(t *testing.T) {
	for _, c := range gridCases(t) {
		if got := periodKinds(c.g); string(kindString(got)) != string(kindString(c.kinds)) {
			t.Fatalf("%s: kinds %s, want %s", c.name, kindString(got), kindString(c.kinds))
		}
		if err := comparePeriodwide(c.g, c.kinds); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		w := walkOf(c.g, c.kinds)
		n := int64(len(c.kinds))
		for i := -n; i <= 2*n; i++ {
			s := c.g.SymbolStart(i)
			for _, tm := range []sim.Time{s - 1, s, s + 1} {
				if err := compareAt(c.g, w, tm); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}
		}
	}
}

// TestGridIndexLongestPeriod: the longest Common Configuration the standard
// allows — two 10 ms patterns at µ6, 17920 symbols — still fits the index's
// offset fields, sampled at a stride across its period.
func TestGridIndexLongestPeriod(t *testing.T) {
	slots := int((10 * sim.Millisecond) / nr.Mu6.SlotDuration())
	p1 := nr.Pattern{Period: 10 * sim.Millisecond, DLSlots: slots - 1, DLSymbols: 4, ULSymbols: 4}
	p2 := nr.Pattern{Period: 10 * sim.Millisecond, DLSlots: 1, DLSymbols: 2, ULSymbols: 10, ULSlots: slots - 2}
	c := nr.CommonConfig{Mu: nr.Mu6, Pattern1: p1, Pattern2: &p2}
	g, err := nr.BuildGrid(c, 0, "long")
	if err != nil {
		t.Fatal(err)
	}
	kinds := patternKinds(c, 0)
	if g.NumSymbols() != 17920 {
		t.Fatalf("NumSymbols = %d, want 17920", g.NumSymbols())
	}
	if err := comparePeriodwide(g, kinds); err != nil {
		t.Fatal(err)
	}
	w := walkOf(g, kinds)
	for i := int64(-3); i <= 2*int64(len(kinds)); i += 997 {
		s := g.SymbolStart(i)
		for _, tm := range []sim.Time{s - 1, s, s + 1} {
			if err := compareAt(g, w, tm); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func kindString(kinds []nr.SymbolKind) []byte {
	b := make([]byte, len(kinds))
	for i, k := range kinds {
		b[i] = byte(k)
	}
	return b
}

// FuzzGridQueries decodes its input into a whole-slot mini-slot grid (one
// D/U/G/F kind per symbol, two bits each, up to 8 slots at µ0–µ3 and
// mini-slot length 2/4/7), an instant and a kind, and checks the indexed
// queries against the walk there and at the symbol starts around it.
func FuzzGridQueries(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x11, 0xff, 0x00, 0x55, 0xaa, 0x1b, 0xe4, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09})
	f.Add([]byte{0x27, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf0})
	f.Add([]byte{0x3a, 0xaa, 0xaa, 0xaa, 0xaa, 0x55, 0x55, 0x55, 0x55, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x03})
	f.Add([]byte("DDDDDDDDDDDDDDDDGGUUUUUUUUUUFFFFUUUU"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		head, data := data[0], data[1:]
		mu := nr.Numerology(head & 3)
		length := nr.MiniSlotLengths[int(head>>2&3)%len(nr.MiniSlotLengths)]
		slots := 1 + int(head>>4&7)
		kinds := make([]nr.SymbolKind, slots*nr.SymbolsPerSlot)
		for i := range kinds {
			var bits byte
			if i/4 < len(data) {
				bits = data[i/4] >> (2 * (i % 4)) & 3
			}
			kinds[i] = allKinds[bits]
		}
		if skip := (len(kinds) + 3) / 4; skip < len(data) {
			data = data[skip:]
		} else {
			data = nil
		}
		var raw [8]byte
		copy(raw[:], data)
		// Instants within ±2^40 ns (about 18 minutes) of t=0.
		tm := sim.Time(int64(binary.LittleEndian.Uint64(raw[:])) >> 23)
		g, err := nr.MiniSlotGrid(nr.MiniSlotConfig{Mu: mu, Length: length}, kinds, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		if err := comparePeriodwide(g, kinds); err != nil {
			t.Fatal(err)
		}
		w := walkOf(g, kinds)
		i := w.symbolAt(tm)
		for _, at := range []sim.Time{tm, w.symbolStart(i) - 1, w.symbolStart(i), w.symbolStart(i + 1), w.symbolStart(i+1) - 1} {
			if err := compareAt(g, w, at); err != nil {
				t.Fatal(err)
			}
		}
	})
}
