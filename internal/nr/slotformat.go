package nr

import "fmt"

// SlotFormat is one row of TS 38.213 Table 11.1.1-1: the per-symbol
// D/U/F characterisation of a 14-symbol slot, indicated dynamically by
// DCI format 2-0 (SFI). Embedding all 56 rows adds nothing to the analyses
// here; this is the documented subset covering the structurally distinct
// cases: all-DL, all-UL, all-flexible, and the DL→guard→UL switch points
// with every guard length the paper's configurations use. Format numbers
// match the standard where the row is standard.
type SlotFormat struct {
	Index   int
	Symbols [SymbolsPerSlot]SymbolKind
}

func format(idx int, pattern string) SlotFormat {
	if len(pattern) != SymbolsPerSlot {
		panic(fmt.Sprintf("nr: slot format %d pattern %q must have %d symbols", idx, pattern, SymbolsPerSlot))
	}
	var f SlotFormat
	f.Index = idx
	for i := 0; i < SymbolsPerSlot; i++ {
		switch pattern[i] {
		case 'D':
			f.Symbols[i] = SymDL
		case 'U':
			f.Symbols[i] = SymUL
		case 'F':
			f.Symbols[i] = SymFlexible
		case 'G':
			f.Symbols[i] = SymGuard
		default:
			panic(fmt.Sprintf("nr: bad symbol %q in slot format %d", pattern[i], idx))
		}
	}
	return f
}

// SlotFormats is the embedded subset of Table 11.1.1-1. Flexible symbols are
// resolved to D, U or guard by the scheduler at runtime; the table only
// constrains what each symbol *may* become.
var SlotFormats = []SlotFormat{
	format(0, "DDDDDDDDDDDDDD"),  // all DL
	format(1, "UUUUUUUUUUUUUU"),  // all UL
	format(2, "FFFFFFFFFFFFFF"),  // all flexible
	format(3, "DDDDDDDDDDDDDF"),  // DL with one trailing flexible
	format(4, "DDDDDDDDDDDDFF"),  //
	format(5, "DDDDDDDDDDDFFF"),  //
	format(8, "FFFFFFFFFFFFFU"),  // trailing UL
	format(9, "FFFFFFFFFFFFUU"),  //
	format(19, "DFFFFFFFFFFFFU"), // one DL, switch, one UL
	format(20, "DDFFFFFFFFFFFU"), //
	format(21, "DDDFFFFFFFFFFU"), //
	format(28, "DDDDDDDDDDDDFU"), // DL-heavy with late switch
	format(32, "DDDDDDDDDDFFUU"), //
	format(34, "DFFFFFFFFFFUUU"), //
	format(39, "DDFFFFFFFFUUUU"), //
	format(45, "DDDDDDFFUUUUUU"), //
	format(46, "DFUUUUUUUUUUUU"), // early switch, UL-heavy
}

// SlotFormatByIndex returns the embedded format with the given index.
func SlotFormatByIndex(idx int) (SlotFormat, bool) {
	for _, f := range SlotFormats {
		if f.Index == idx {
			return f, true
		}
	}
	return SlotFormat{}, false
}

// Counts returns the number of DL, UL, flexible and guard symbols.
func (f SlotFormat) Counts() (dl, ul, flex, guard int) {
	for _, s := range f.Symbols {
		switch s {
		case SymDL:
			dl++
		case SymUL:
			ul++
		case SymFlexible:
			flex++
		case SymGuard:
			guard++
		}
	}
	return
}

// MiniSlotLengths are the PDSCH/PUSCH mapping type B durations permitted for
// mini-slot ("non-slot") scheduling: 2, 4 or 7 symbols (TR 38.912, TS 38.214).
var MiniSlotLengths = []int{2, 4, 7}

// MiniSlotConfig describes non-slot-based scheduling: the gNB announces the
// characterisation of the remaining symbols at the head of each slot and can
// (re)allocate at mini-slot granularity. The paper's §5 notes the standard
// "sets a target slot duration of at least 0.5 ms for the mini-slot
// configuration" (TR 38.912) — Standards­Compliant tracks that restriction.
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
