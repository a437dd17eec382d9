package nr

import (
	"strings"
	"testing"

	"urllcsim/internal/sim"
)

func TestAllowedTDDPeriods(t *testing.T) {
	// §2: "The standard restricts the period ... to {0.5, 0.625, 1, 1.25,
	// 2, 2.5, 5, 10} ms".
	wantMs := []float64{0.5, 0.625, 1, 1.25, 2, 2.5, 5, 10}
	if len(AllowedTDDPeriods) != len(wantMs) {
		t.Fatalf("period set has %d entries, want %d", len(AllowedTDDPeriods), len(wantMs))
	}
	for i, ms := range wantMs {
		if got := float64(AllowedTDDPeriods[i]) / 1e6; got != ms {
			t.Errorf("period[%d] = %vms, want %vms", i, got, ms)
		}
	}
	if PeriodAllowed(3 * sim.Millisecond) {
		t.Error("3ms must not be an allowed period")
	}
	if !PeriodAllowed(625 * sim.Microsecond) {
		t.Error("0.625ms must be allowed")
	}
}

func TestMinimumPatternIsTwoSlots(t *testing.T) {
	// §5: "the minimum pattern duration for TDD Common Configuration is
	// 0.5ms, which contains only two slots" at µ2.
	p := PatternDM(Mu2, 2, 10)
	if p.Period != 500*sim.Microsecond {
		t.Fatalf("DM period = %v, want 0.5ms", p.Period)
	}
	if got := p.Slots(Mu2); got != 2 {
		t.Fatalf("DM slots = %d, want 2", got)
	}
	if err := p.Validate(Mu2); err != nil {
		t.Fatalf("DM invalid: %v", err)
	}
}

func TestPatternDDDU(t *testing.T) {
	p := PatternDDDU(Mu1)
	if p.Period != 2*sim.Millisecond {
		t.Fatalf("DDDU@µ1 period = %v, want 2ms", p.Period)
	}
	err := p.Validate(Mu1)
	if _, ok := err.(*ImplicitGuardError); !ok {
		t.Fatalf("DDDU must flag the implicit guard, got %v", err)
	}
	if !strings.Contains(err.Error(), "guard") {
		t.Fatalf("implicit guard error text: %q", err.Error())
	}
}

func TestPatternValidation(t *testing.T) {
	cases := []struct {
		name string
		p    Pattern
		mu   Numerology
		ok   bool
	}{
		{"bad period", Pattern{Period: 3 * sim.Millisecond, DLSlots: 3}, Mu0, false},
		{"slot mismatch", Pattern{Period: sim.Millisecond, DLSlots: 5}, Mu1, false},
		{"non-integer slots", Pattern{Period: 625 * sim.Microsecond, DLSlots: 2, ULSlots: 1}, Mu2, false},
		{"0.625ms at µ3", Pattern{Period: 625 * sim.Microsecond, DLSlots: 3, DLSymbols: 2, ULSymbols: 10, ULSlots: 1}, Mu3, true},
		{"mixed overflow", Pattern{Period: 500 * sim.Microsecond, DLSlots: 1, DLSymbols: 10, ULSymbols: 10}, Mu2, false},
		{"DL only", Pattern{Period: sim.Millisecond, DLSlots: 2}, Mu1, true},
		{"UL only", Pattern{Period: sim.Millisecond, ULSlots: 2}, Mu1, true},
	}
	for _, c := range cases {
		err := c.p.Validate(c.mu)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestGuardSymbols(t *testing.T) {
	p := PatternDM(Mu2, 2, 10)
	if g := p.GuardSymbols(); g != 2 {
		t.Fatalf("DM(2,10) guard = %d, want 2", g)
	}
	if g := PatternDU(Mu2).GuardSymbols(); g != 0 {
		t.Fatalf("DU guard = %d, want 0", g)
	}
}

// patternKinds renders one period of p, one kind per symbol.
func patternKinds(p Pattern, mu Numerology, implicitGuard int) []SymbolKind {
	syms := make([]SymbolKind, p.Slots(mu)*SymbolsPerSlot)
	for i := range syms {
		syms[i] = p.kindOf(i, implicitGuard)
	}
	return syms
}

func TestPatternSymbols(t *testing.T) {
	p := PatternDM(Mu2, 2, 10)
	syms := patternKinds(p, Mu2, 0)
	if len(syms) != 28 {
		t.Fatalf("DM symbols = %d, want 28", len(syms))
	}
	// Slot 0: all DL.
	for i := 0; i < 14; i++ {
		if syms[i] != SymDL {
			t.Fatalf("symbol %d = %v, want D", i, syms[i])
		}
	}
	// Slot 1: 2 DL, 2 guard, 10 UL.
	want := "DDGGUUUUUUUUUU"
	for i := 0; i < 14; i++ {
		if byte(syms[14+i]) != want[i] {
			t.Fatalf("mixed slot symbol %d = %v, want %c", i, syms[14+i], want[i])
		}
	}
}

func TestPatternSymbolsImplicitGuard(t *testing.T) {
	p := PatternDU(Mu2)
	syms := patternKinds(p, Mu2, 2)
	if syms[11] != SymDL || syms[12] != SymGuard || syms[13] != SymGuard {
		t.Fatalf("implicit guard not stolen from DL tail: %v %v %v", syms[11], syms[12], syms[13])
	}
	if syms[14] != SymUL {
		t.Fatalf("first UL symbol = %v", syms[14])
	}
}

func TestCommonConfigValidate(t *testing.T) {
	c := CommonConfig{Mu: Mu2, Pattern1: PatternDM(Mu2, 2, 10)}
	if err := c.Validate(); err != nil {
		t.Fatalf("DM config invalid: %v", err)
	}
	// Two patterns: total period must divide 20 ms.
	p2 := PatternMU(Mu2, 2, 10)
	c2 := CommonConfig{Mu: Mu2, Pattern1: PatternDM(Mu2, 2, 10), Pattern2: &p2}
	if err := c2.Validate(); err != nil {
		t.Fatalf("DM+MU (1ms total) invalid: %v", err)
	}
	if c2.Period() != sim.Millisecond {
		t.Fatalf("total period = %v, want 1ms", c2.Period())
	}
	bad := CommonConfig{Mu: Mu1, Pattern1: Pattern{Period: 2500 * sim.Microsecond, DLSlots: 5}}
	p3 := Pattern{Period: 5 * sim.Millisecond, ULSlots: 10}
	bad.Pattern2 = &p3 // 7.5 ms total does not divide 20 ms
	if err := bad.Validate(); err == nil {
		t.Fatal("7.5ms total period must be rejected")
	}
}

func TestPatternString(t *testing.T) {
	s := PatternDM(Mu2, 2, 10).String()
	if !strings.Contains(s, "D") || !strings.Contains(s, "M(2D/2G/10U)") {
		t.Fatalf("pattern string = %q", s)
	}
}

func TestMiniSlotConfig(t *testing.T) {
	for _, l := range []int{2, 4, 7} {
		if err := (MiniSlotConfig{Mu: Mu2, Length: l}).Validate(); err != nil {
			t.Errorf("mini-slot length %d rejected: %v", l, err)
		}
	}
	if err := (MiniSlotConfig{Mu: Mu2, Length: 3}).Validate(); err == nil {
		t.Error("mini-slot length 3 accepted")
	}
}
