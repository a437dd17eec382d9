package nr

import "fmt"

// MiniSlotLengths are the PDSCH/PUSCH mapping type B durations permitted for
// mini-slot ("non-slot") scheduling: 2, 4 or 7 symbols (TR 38.912, TS 38.214).
var MiniSlotLengths = []int{2, 4, 7}

// MiniSlotConfig describes non-slot-based scheduling: the gNB announces the
// characterisation of the remaining symbols at the head of each slot and can
// (re)allocate at mini-slot granularity. The paper's §5 notes the standard
// "sets a target slot duration of at least 0.5 ms for the mini-slot
// configuration" (TR 38.912); Validate checks the length and numerology
// only and does not enforce that target.
type MiniSlotConfig struct {
	Mu     Numerology
	Length int // symbols per mini-slot: 2, 4 or 7
}

// Validate checks the mini-slot length.
func (m MiniSlotConfig) Validate() error {
	if !m.Mu.Valid() {
		return fmt.Errorf("nr: invalid numerology %d", int(m.Mu))
	}
	for _, l := range MiniSlotLengths {
		if m.Length == l {
			return nil
		}
	}
	return fmt.Errorf("nr: mini-slot length %d not in %v", m.Length, MiniSlotLengths)
}
