//go:build obsdebug

package obs

// Debug-build misuse guard for the pooled record pipeline.
//
// Reset and SpillSpans recycle the recorder's slab storage in place: any
// slice previously returned by Spans/Outcomes/Slots — or handed to a spill
// callback — aliases storage the next run will overwrite. Retaining such a
// slice is a use-after-release bug that normal builds cannot detect (the
// stale data merely goes quietly wrong). Under `-tags obsdebug` the recycled
// storage is poisoned first: every record is overwritten with an
// unmistakable sentinel, so a retainer sees PoisonPacket ids (and `make
// check`'s race pass, which builds with this tag, fails loudly on any
// assertion over the poisoned values).

// PoisonEnabled reports whether this build poisons recycled slabs.
const PoisonEnabled = true

// PoisonPacket is the sentinel packet id written into recycled records.
const PoisonPacket = -0xBAD

const poisonStep = "POISONED: record retained across Recorder.Reset/SpillSpans"

func poisonSpans(s []Span) {
	for i := range s {
		s[i] = Span{Packet: PoisonPacket, Step: poisonStep}
	}
}

func poisonOutcomes(o []Outcome) {
	for i := range o {
		o[i] = Outcome{Packet: PoisonPacket}
	}
}

func poisonSlots(s []SlotRecord) {
	for i := range s {
		s[i] = SlotRecord{QueueDepth: PoisonPacket}
	}
}
