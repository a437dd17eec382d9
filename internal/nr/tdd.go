package nr

import (
	"fmt"
	"strings"

	"urllcsim/internal/sim"
)

// SymbolKind classifies one OFDM symbol on the TDD timeline.
type SymbolKind byte

const (
	SymDL       SymbolKind = 'D' // downlink
	SymUL       SymbolKind = 'U' // uplink
	SymGuard    SymbolKind = 'G' // guard (DL→UL switch, mandated by synchronisation)
	SymFlexible SymbolKind = 'F' // flexible (Slot Format / Mini-slot: decided dynamically)
)

func (k SymbolKind) String() string { return string(rune(k)) }

// AllowedTDDPeriods is the set of pattern periodicities permitted by the
// tdd-UL-DL-ConfigurationCommon IE (TS 38.331), the restriction the paper
// leans on: the minimum Common Configuration period is 0.5 ms.
var AllowedTDDPeriods = []sim.Duration{
	500 * sim.Microsecond,
	625 * sim.Microsecond,
	1 * sim.Millisecond,
	1250 * sim.Microsecond,
	2 * sim.Millisecond,
	2500 * sim.Microsecond,
	5 * sim.Millisecond,
	10 * sim.Millisecond,
}

// PeriodAllowed reports whether p is a legal Common Configuration period.
func PeriodAllowed(p sim.Duration) bool {
	for _, a := range AllowedTDDPeriods {
		if a == p {
			return true
		}
	}
	return false
}

// Pattern is one TDD-UL-DL pattern of the Common Configuration
// (TS 38.331 TDD-UL-DL-Pattern): a periodicity carved into
//
//	DLSlots full-DL slots · one mixed slot (DLSymbols ‖ guard ‖ ULSymbols) ·
//	ULSlots full-UL slots
//
// The mixed slot is present whenever DLSymbols or ULSymbols is non-zero;
// its guard length is whatever remains of the 14 symbols.
type Pattern struct {
	Period    sim.Duration
	DLSlots   int
	DLSymbols int
	ULSymbols int
	ULSlots   int
}

// HasMixedSlot reports whether the pattern contains a mixed (partial) slot.
func (p Pattern) HasMixedSlot() bool { return p.DLSymbols > 0 || p.ULSymbols > 0 }

// GuardSymbols returns the guard length inside the mixed slot.
func (p Pattern) GuardSymbols() int {
	if !p.HasMixedSlot() {
		return 0
	}
	return SymbolsPerSlot - p.DLSymbols - p.ULSymbols
}

// Slots returns the number of slots the pattern occupies at numerology µ.
func (p Pattern) Slots(mu Numerology) int {
	return int(p.Period / mu.SlotDuration())
}

// Validate checks the pattern against the standard's constraints for
// numerology µ.
func (p Pattern) Validate(mu Numerology) error {
	if !mu.Valid() {
		return fmt.Errorf("nr: invalid numerology %d", int(mu))
	}
	if !PeriodAllowed(p.Period) {
		return fmt.Errorf("nr: TDD period %v not in the allowed set %v", p.Period, AllowedTDDPeriods)
	}
	slotDur := mu.SlotDuration()
	if p.Period%slotDur != 0 {
		return fmt.Errorf("nr: period %v is not an integer number of %v slots", p.Period, slotDur)
	}
	slots := p.Slots(mu)
	used := p.DLSlots + p.ULSlots
	if p.HasMixedSlot() {
		used++
	}
	if used != slots {
		return fmt.Errorf("nr: pattern uses %d slots but period %v holds %d at %v", used, p.Period, slots, mu)
	}
	if p.DLSlots < 0 || p.ULSlots < 0 || p.DLSymbols < 0 || p.ULSymbols < 0 {
		return fmt.Errorf("nr: negative pattern field")
	}
	if p.DLSymbols+p.ULSymbols > SymbolsPerSlot {
		return fmt.Errorf("nr: mixed slot needs %d symbols, only %d exist",
			p.DLSymbols+p.ULSymbols, SymbolsPerSlot)
	}
	if p.DLSlots > 0 && p.ULSlots > 0 && !p.HasMixedSlot() {
		// A direct D→U transition without guard symbols violates the
		// synchronisation requirement the paper describes in §2. The
		// standard always places the switch inside a mixed/flexible slot;
		// configurations like the testbed's "DDDU" really end the last DL
		// slot with guard symbols. We accept the pattern (the paper and
		// srsRAN both use the shorthand) but require callers to opt in via
		// AllowImplicitGuard.
		return &ImplicitGuardError{Pattern: p}
	}
	return nil
}

// ImplicitGuardError flags a pattern that switches DL→UL without an explicit
// mixed slot. Such patterns are accepted by BuildGrid, which steals the
// trailing symbols of the last DL slot for guard.
type ImplicitGuardError struct{ Pattern Pattern }

func (e *ImplicitGuardError) Error() string {
	return fmt.Sprintf("nr: pattern %+v switches DL→UL without a mixed slot (guard will be implicit)", e.Pattern)
}

// kindOf returns the kind of symbol i (0 ≤ i < 14·Slots) of the pattern.
// implicitGuard symbols are stolen from the end of the final DL slot when
// the pattern has a direct D→U transition (cf. ImplicitGuardError).
func (p Pattern) kindOf(i, implicitGuard int) SymbolKind {
	dlEnd := p.DLSlots * SymbolsPerSlot
	switch {
	case i < dlEnd:
		if implicitGuard > 0 && p.ULSlots > 0 && !p.HasMixedSlot() && i >= dlEnd-implicitGuard {
			return SymGuard
		}
		return SymDL
	case p.HasMixedSlot() && i < dlEnd+SymbolsPerSlot:
		switch s := i - dlEnd; {
		case s < p.DLSymbols:
			return SymDL
		case s < SymbolsPerSlot-p.ULSymbols:
			return SymGuard
		}
	}
	return SymUL
}

func (p Pattern) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v:", p.Period)
	for i := 0; i < p.DLSlots; i++ {
		b.WriteByte('D')
	}
	if p.HasMixedSlot() {
		fmt.Fprintf(&b, "M(%dD/%dG/%dU)", p.DLSymbols, p.GuardSymbols(), p.ULSymbols)
	}
	for i := 0; i < p.ULSlots; i++ {
		b.WriteByte('U')
	}
	return b.String()
}

// CommonConfig is the full tdd-UL-DL-ConfigurationCommon: one or two
// concatenated patterns (TS 38.331). With two patterns the effective period
// is the sum, which the standard requires to divide 20 ms.
type CommonConfig struct {
	Mu       Numerology
	Pattern1 Pattern
	Pattern2 *Pattern // optional
}

// Period returns the total configuration period.
func (c CommonConfig) Period() sim.Duration {
	p := c.Pattern1.Period
	if c.Pattern2 != nil {
		p += c.Pattern2.Period
	}
	return p
}

// Validate checks both patterns and the 20 ms divisibility rule.
func (c CommonConfig) Validate() error {
	check := func(p Pattern) error {
		err := p.Validate(c.Mu)
		var ig *ImplicitGuardError
		if err != nil {
			if ok := asImplicitGuard(err, &ig); !ok {
				return err
			}
		}
		return nil
	}
	if err := check(c.Pattern1); err != nil {
		return err
	}
	if c.Pattern2 != nil {
		if err := check(*c.Pattern2); err != nil {
			return err
		}
	}
	if rem := (20 * sim.Millisecond) % c.Period(); rem != 0 {
		return fmt.Errorf("nr: total TDD period %v does not divide 20ms", c.Period())
	}
	return nil
}

func asImplicitGuard(err error, target **ImplicitGuardError) bool {
	if e, ok := err.(*ImplicitGuardError); ok {
		*target = e
		return true
	}
	return false
}

// --- Canonical patterns used throughout the paper ---

// PatternDDDU is the testbed configuration of §7: three DL slots followed by
// one UL slot. At µ1 (0.5 ms slots) the period is 2 ms.
func PatternDDDU(mu Numerology) Pattern {
	return Pattern{Period: 4 * mu.SlotDuration(), DLSlots: 3, ULSlots: 1}
}

// PatternDM is the only Common Configuration that satisfies Table 1 for both
// grant-free UL and DL: one DL slot plus one mixed slot. dlSyms symbols of
// the mixed slot stay DL (control), ulSyms are UL; the rest is guard.
func PatternDM(mu Numerology, dlSyms, ulSyms int) Pattern {
	return Pattern{Period: 2 * mu.SlotDuration(), DLSlots: 1, DLSymbols: dlSyms, ULSymbols: ulSyms}
}

// PatternMU is one mixed slot followed by one full UL slot.
func PatternMU(mu Numerology, dlSyms, ulSyms int) Pattern {
	return Pattern{Period: 2 * mu.SlotDuration(), DLSymbols: dlSyms, ULSymbols: ulSyms, ULSlots: 1}
}

// PatternDU is one DL slot followed directly by one UL slot (guard implicit;
// see ImplicitGuardError).
func PatternDU(mu Numerology) Pattern {
	return Pattern{Period: 2 * mu.SlotDuration(), DLSlots: 1, ULSlots: 1}
}
