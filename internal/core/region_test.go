package core

import (
	"fmt"
	"testing"

	"urllcsim/internal/nr"
	"urllcsim/internal/sim"
)

// scanRegion is the reference for regionAtOrAfter: the symbol-by-symbol
// scan over two periods plus a slot that it replaced.
func scanRegion(g *nr.Grid, t sim.Time, kind nr.SymbolKind, needSyms int) (sim.Time, error) {
	if needSyms <= 0 {
		needSyms = 1
	}
	i := g.SymbolAt(t)
	if g.SymbolStart(i) < t {
		i++
	}
	limit := i + int64(2*g.NumSymbols()+nr.SymbolsPerSlot)
	for ; i <= limit; i++ {
		k := g.KindOfSymbol(i)
		if k != kind && k != nr.SymFlexible {
			continue
		}
		if g.RunOfKind(i, kind) >= needSyms {
			return g.SymbolStart(i), nil
		}
	}
	return 0, fmt.Errorf("core: no %c region of %d symbols in %s", kind, needSyms, g.Label)
}

// TestRegionHopMatchesScan: hopping from run to run finds the same region
// (or the same error) as the symbol-by-symbol scan, for every Table 1
// configuration and DDDU, both directions, every region length up to one
// past the period, at every symbol start ±1 ns over two periods.
func TestRegionHopMatchesScan(t *testing.T) {
	as := DefaultAssumptions()
	cfgs := append(Table1Configs(nr.Mu2, as), ConfigDDDU(nr.Mu1, as), ConfigDMSplit(nr.Mu2, 2, 10, as))
	for _, c := range cfgs {
		for _, g := range []*nr.Grid{c.DL, c.UL} {
			n := int64(g.NumSymbols())
			for _, kind := range []nr.SymbolKind{nr.SymDL, nr.SymUL} {
				for need := 0; need <= int(n)+1; need++ {
					for i := int64(0); i < 2*n; i++ {
						s := g.SymbolStart(i)
						for _, tm := range []sim.Time{s - 1, s, s + 1} {
							got, gerr := regionAtOrAfter(g, tm, kind, need)
							want, werr := scanRegion(g, tm, kind, need)
							if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
								t.Fatalf("%s %v need %d at %d: hop %v, %v; scan %v, %v",
									g.Label, kind, need, tm, got, gerr, want, werr)
							}
						}
					}
				}
			}
		}
	}
}
