//go:build obsdebug

package obs

import (
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
	spans, outcomes, slots := r.Spans(), r.Outcomes(), r.Slots()
	if len(spans) == 0 || len(outcomes) == 0 || len(slots) == 0 {
		t.Fatal("workload retained nothing")
	}
	r.Reset()
	if spans[0].Packet != PoisonPacket || spans[0].Step != poisonStep {
		t.Fatalf("span not poisoned after Reset: %+v", spans[0])
	}
	if outcomes[0].Packet != PoisonPacket {
		t.Fatalf("outcome not poisoned after Reset: %+v", outcomes[0])
	}
	if slots[0].QueueDepth != PoisonPacket {
		t.Fatalf("slot record not poisoned after Reset: %+v", slots[0])
	}
}

// TestPoisonOnSpill: a spill batch is poisoned as soon as the callback
// returns — a consumer that stashes the slice instead of processing it sees
// sentinels, not silently stale spans.
func TestPoisonOnSpill(t *testing.T) {
	r := NewRecorder()
	var stash []Span
	r.SpillSpans(4, func(batch []Span) { stash = batch })
	for id := 0; id < 4; id++ {
		r.PacketSpan(id, DirUL, LayerMAC, "tx", core.Protocol, sim.Time(id), sim.Microsecond)
	}
	if len(stash) != 4 {
		t.Fatalf("spill handed %d spans, want 4", len(stash))
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
