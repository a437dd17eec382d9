package nr

import (
	"testing"

	"urllcsim/internal/sim"
)

func TestParsePatternBasic(t *testing.T) {
	p, err := ParsePattern("DDDU", Mu1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.DLSlots != 3 || p.ULSlots != 1 || p.HasMixedSlot() {
		t.Fatalf("DDDU parsed to %+v", p)
	}
	if p.Period != 2*sim.Millisecond {
		t.Fatalf("period = %v", p.Period)
	}
}

func TestParsePatternMixed(t *testing.T) {
	for _, s := range []string{"DDDSU", "dddsu", "DDDMU"} {
		p, err := ParsePattern(s, Mu1, 6, 4)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if p.DLSlots != 3 || p.ULSlots != 1 || p.DLSymbols != 6 || p.ULSymbols != 4 {
			t.Fatalf("%q parsed to %+v", s, p)
		}
		if p.GuardSymbols() != 4 {
			t.Fatalf("%q guard = %d", s, p.GuardSymbols())
		}
	}
	// DM shape.
	p, err := ParsePattern("DM", Mu2, 6, 6)
	if err != nil || p.DLSlots != 1 || !p.HasMixedSlot() {
		t.Fatalf("DM: %+v %v", p, err)
	}
}

func TestParsePatternErrors(t *testing.T) {
	cases := []struct {
		s  string
		mu Numerology
	}{
		{"", Mu1},
		{"DXU", Mu1},
		{"DSUS", Mu1},  // two mixed slots
		{"UDD", Mu1},   // D after U
		{"DUSD", Mu1},  // D after mixed+U
		{"DDDDU", Mu1}, // 2.5ms period illegal? 5 slots × 0.5ms = 2.5ms — allowed!
	}
	for _, c := range cases[:5] {
		if _, err := ParsePattern(c.s, c.mu, 2, 2); err == nil {
			t.Fatalf("%q accepted", c.s)
		}
	}
	// 5 slots at µ1 = 2.5ms: in the allowed period set.
	if _, err := ParsePattern("DDDDU", Mu1, 2, 2); err != nil {
		t.Fatalf("DDDDU (2.5ms) rejected: %v", err)
	}
	// 3 slots at µ1 = 1.5ms: not an allowed period.
	if _, err := ParsePattern("DDU", Mu1, 2, 2); err == nil {
		t.Fatal("1.5ms period accepted")
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("DDDSU", Mu1, 6, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Slots() != 5 || g.Label != "DDDSU" {
		t.Fatalf("grid %v", g)
	}
	if g.CountKind(SymDL) != 3*14+6 || g.CountKind(SymUL) != 14+4 || g.CountKind(SymGuard) != 4 {
		t.Fatalf("kinds: %dD %dU %dG", g.CountKind(SymDL), g.CountKind(SymUL), g.CountKind(SymGuard))
	}
	// DU with implicit guard.
	g, err = ParseGrid("DU", Mu2, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.CountKind(SymGuard) != 2 {
		t.Fatal("implicit guard missing")
	}
}
