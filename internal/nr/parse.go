package nr

import (
	"fmt"
	"strings"

	"urllcsim/internal/sim"
)

// ParsePattern builds a Common Configuration pattern from a compact string
// like "DDDU", "DDDSU", "DM" or "DSU", where each letter is one slot:
//
//	D — full downlink slot
//	U — full uplink slot
//	S or M — mixed/special slot (dlSyms DL ‖ guard ‖ ulSyms UL)
//
// The string must follow the standard's D…M…U ordering (at most one mixed
// slot). The period is len(s) slots at µ; it must be in the allowed set.
func ParsePattern(s string, mu Numerology, dlSyms, ulSyms int) (Pattern, error) {
	if s == "" {
		return Pattern{}, fmt.Errorf("nr: empty pattern string")
	}
	up := strings.ToUpper(s)
	var p Pattern
	p.Period = mu.SlotDuration() * sim.Duration(len(up))
	stage := 0 // 0: in D run, 1: saw mixed, 2: in U run
	for i := 0; i < len(up); i++ {
		switch up[i] {
		case 'D':
			if stage != 0 {
				return Pattern{}, fmt.Errorf("nr: %q has D after the mixed/UL part", s)
			}
			p.DLSlots++
		case 'S', 'M':
			if stage != 0 {
				return Pattern{}, fmt.Errorf("nr: %q has more than one mixed slot", s)
			}
			stage = 1
			p.DLSymbols = dlSyms
			p.ULSymbols = ulSyms
		case 'U':
			if stage == 0 {
				stage = 2
			} else if stage == 1 {
				stage = 2
			}
			p.ULSlots++
		default:
			return Pattern{}, fmt.Errorf("nr: invalid slot letter %q in %q", up[i], s)
		}
	}
	if err := p.Validate(mu); err != nil {
		if _, ok := err.(*ImplicitGuardError); !ok {
			return Pattern{}, err
		}
	}
	return p, nil
}

// ParseGrid is the one-call version: pattern string → validated Grid.
// implicitGuard symbols are stolen from the DL tail when the pattern has a
// direct D→U transition.
func ParseGrid(s string, mu Numerology, dlSyms, ulSyms, implicitGuard int) (*Grid, error) {
	p, err := ParsePattern(s, mu, dlSyms, ulSyms)
	if err != nil {
		return nil, err
	}
	return BuildGrid(CommonConfig{Mu: mu, Pattern1: p}, implicitGuard, strings.ToUpper(s))
}
