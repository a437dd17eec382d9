//go:build !obsdebug

package obs

// Release builds skip slab poisoning entirely — see poison_debug.go for the
// obsdebug misuse guard these no-ops stand in for.

// PoisonEnabled reports whether this build poisons recycled slabs.
const PoisonEnabled = false

// PoisonPacket is the sentinel packet id debug builds write into recycled
// records (exported unconditionally so tests can reference it).
const PoisonPacket = -0xBAD

func poisonSpans([]Span)       {}
func poisonOutcomes([]Outcome) {}
func poisonSlots([]SlotRecord) {}
