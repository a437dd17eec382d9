// Package nr models the 5G New Radio frame structure: numerologies,
// frequency bands, duplexing modes, TDD patterns (Common Configuration,
// Mini-slot) and the symbol-level timeline ("grid") that the latency
// analyses in internal/core interrogate.
//
// The package follows TS 38.211 (frame structure) and TS 38.331 (the
// tdd-UL-DL-ConfigurationCommon IE whose period set the paper cites).
package nr

import (
	"fmt"

	"urllcsim/internal/sim"
)

// Numerology is the 5G NR numerology µ. The subcarrier spacing is
// 15 kHz · 2^µ and the slot duration is 1 ms / 2^µ (TS 38.211 §4.3.2).
type Numerology int

// The seven numerologies of TS 38.211. µ0–µ2 are FR1 (sub-6 GHz), µ2–µ6 are
// FR2 (mmWave); µ5 and µ6 arrive with FR2-2 (52.6–71 GHz) in Release 17.
const (
	Mu0 Numerology = 0 // 15 kHz, 1 ms slots
	Mu1 Numerology = 1 // 30 kHz, 0.5 ms slots
	Mu2 Numerology = 2 // 60 kHz, 0.25 ms slots
	Mu3 Numerology = 3 // 120 kHz, 125 µs slots
	Mu4 Numerology = 4 // 240 kHz, 62.5 µs slots
	Mu5 Numerology = 5 // 480 kHz, 31.25 µs slots
	Mu6 Numerology = 6 // 960 kHz, 15.625 µs slots — the paper's "as low as 15.625 µs"
)

// SymbolsPerSlot is fixed at 14 for the normal cyclic prefix (TS 38.211).
const SymbolsPerSlot = 14

// Valid reports whether µ is one of the defined numerologies.
func (m Numerology) Valid() bool { return m >= Mu0 && m <= Mu6 }

// SCSkHz returns the subcarrier spacing in kHz.
func (m Numerology) SCSkHz() int { return 15 << uint(m) }

// SlotDuration returns the slot length (1 ms / 2^µ).
func (m Numerology) SlotDuration() sim.Duration {
	return sim.Millisecond >> uint(m)
}

// SymbolDuration returns the *average* OFDM symbol duration (slot/14). Exact
// per-symbol durations differ by a fraction of a sample because the first
// symbol of each half-subframe carries a longer cyclic prefix; the grid
// computes boundaries with exact rational arithmetic so no drift accumulates,
// and the sub-symbol CP asymmetry is irrelevant at the latencies studied.
func (m Numerology) SymbolDuration() sim.Duration {
	return m.SlotDuration() / SymbolsPerSlot
}

// SupportedIn reports whether the numerology may be configured in the given
// frequency range (TR 38.913 / TS 38.211: µ0–µ2 in FR1, µ2–µ6 in FR2).
func (m Numerology) SupportedIn(fr FrequencyRange) bool {
	switch fr {
	case FR1:
		return m >= Mu0 && m <= Mu2
	case FR2:
		return m >= Mu2 && m <= Mu6
	default:
		return false
	}
}

func (m Numerology) String() string {
	if !m.Valid() {
		return fmt.Sprintf("µ%d(invalid)", int(m))
	}
	return fmt.Sprintf("µ%d(%dkHz)", int(m), m.SCSkHz())
}

// FrequencyRange distinguishes sub-6 GHz (FR1) from mmWave (FR2).
type FrequencyRange int

const (
	FR1 FrequencyRange = 1 // 410 MHz – 7.125 GHz
	FR2 FrequencyRange = 2 // 24.25 – 52.6 GHz (FR2-1)
)
