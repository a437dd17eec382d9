//go:build obsdebug

package obs

import (
	"slices"
	"testing"

	"urllcsim/internal/core"
	"urllcsim/internal/sim"
)

// TestPoisonOnReset: under -tags obsdebug, any slice returned before a Reset
// reads as unmistakable sentinels afterwards — the use-after-release guard
// `make race` builds with.
func TestPoisonOnReset(t *testing.T) {
	r := NewRecorder()
	r.EnableSlotLedger()
	recordWorkload(r)
	spanBlocks, outcomeBlocks, slots := slices.Collect(r.Spans().Blocks()), slices.Collect(r.Outcomes().Blocks()), r.Slots()
	if len(spanBlocks) < 2 || len(outcomeBlocks) == 0 || len(slots) == 0 {
		t.Fatal("workload retained less than two span blocks, an outcome and a slot")
	}
	r.Reset()
	for _, b := range spanBlocks {
		if b[len(b)-1].Packet != PoisonPacket {
			t.Fatalf("span block not poisoned to its end after Reset: %+v", b[len(b)-1])
		}
	}
	spans, outcomes := spanBlocks[0], outcomeBlocks[0]
	if spans[0].Packet != PoisonPacket || spans[0].Step != poisonStep {
		t.Fatalf("span not poisoned after Reset: %+v", spans[0])
	}
	if outcomes[0].Packet != PoisonPacket {
		t.Fatalf("outcome not poisoned after Reset: %+v", outcomes[0])
	}
	if slots[0].QueueDepth != PoisonPacket {
		t.Fatalf("slot record not poisoned after Reset: %+v", slots[0])
	}
	recordWorkload(r) // the takes now go into the block Reset sized for them
	takes := r.Slots()[0].PerUE
	r.Reset()
	if takes[0].UE != PoisonPacket {
		t.Fatalf("slot takes not poisoned after Reset: %+v", takes[0])
	}
}

// TestPoisonOnSpill: a spilled block is poisoned as soon as the callback
// returns — a consumer that stashes the slice instead of processing it sees
// sentinels, not silently stale spans.
func TestPoisonOnSpill(t *testing.T) {
	r := NewRecorder()
	var stash []Span
	r.SpillSpans(func(block []Span) { stash = block })
	first := logBlockLen[Span](0)
	for id := 0; id < first; id++ {
		r.PacketSpan(id, DirUL, LayerMAC, "tx", core.Protocol, sim.Time(id), sim.Microsecond)
	}
	if len(stash) != first {
		t.Fatalf("spill handed %d spans, want one block of %d", len(stash), first)
	}
	if stash[0].Packet != PoisonPacket {
		t.Fatalf("spilled batch not poisoned after handoff: %+v", stash[0])
	}
}

// TestPoisonEnabledFlag pins the build-tag wiring itself.
func TestPoisonEnabledFlag(t *testing.T) {
	if !PoisonEnabled {
		t.Fatal("obsdebug build reports PoisonEnabled = false")
	}
}
