package obs

import (
	"strings"
	"testing"

	"urllcsim/internal/core"
	"urllcsim/internal/sim"
)

// recordWorkload drives one deterministic mixed workload — spans,
// outcomes, flat metrics, labeled families, slot snapshots and the slot
// ledger — through a recorder. Used by the Reset and streaming tests to
// compare a reused recorder against a fresh one.
func recordWorkload(r *Recorder) {
	pkt := CounterFamH[PktEvent](r, "pkt.by_ue")
	lat := HistFamH[UEDir](r, "lat.by_ue")
	take := GaugeFamH[UEKey](r, "slot.ue_dl_take_bytes")
	latUL := r.TimingH("lat.ul")
	for id := 0; id < 64; id++ {
		dir := DirUL
		if id%2 == 1 {
			dir = DirDL
		}
		r.PacketSpan(id, dir, LayerStack, "proc", core.Processing, sim.Time(id*1000), 30*sim.Microsecond)
		r.PacketSpan(id, dir, LayerSched, "wait", core.Protocol, sim.Time(id*1000+30000), 100*sim.Microsecond)
		r.PacketSpan(id, dir, LayerAir, "air", core.Radio, sim.Time(id*1000+130000), 140*sim.Microsecond)
		r.Count("pkt.offered", 1)
		latUL.Observe(sim.Duration(270+id) * sim.Microsecond)
		pkt.Add(PktEvent{UE: id % 4, Dir: dir, Event: FateDelivered}, 1)
		lat.Observe(UEDir{UE: id % 4, Dir: dir}, sim.Duration(270+id)*sim.Microsecond)
		r.Outcome(Outcome{Packet: id, UE: id % 4, Dir: dir, Delivered: true,
			Latency: sim.Duration(270+id) * sim.Microsecond, Attempts: 1, End: sim.Time(id*1000 + 270000)})
	}
	for slot := 0; slot < 16; slot++ {
		r.SetGauge("rlc.depth", float64(slot%5))
		take.Set(UEKey{UE: slot % 4}, float64(32*slot))
		r.SlotSnapshot(sim.Time(slot * 500000))
		r.Slot(SlotRecord{Boundary: sim.Time(slot * 500000), TargetDL: sim.Time(slot*500000 + 250000),
			DLCapBytes: 96, DLUsedBytes: 32 * (slot % 3), QueueDepth: slot % 5,
			PerUE: workloadTakes[slot%4]})
	}
}

// workloadTakes is prebuilt so recordWorkload itself allocates nothing — the
// zero-alloc assertion below must see only the recorder's behaviour.
var workloadTakes = [4][]SlotUETake{
	{{UE: 0, DLBytes: 0}}, {{UE: 1, DLBytes: 32}}, {{UE: 2, DLBytes: 64}}, {{UE: 3, DLBytes: 0}},
}

// exportAll renders everything a recorder holds to one string: the JSONL
// trace, the slot ledger and the Prometheus exposition (which covers every
// registry instrument, families included).
func exportAll(t *testing.T, r *Recorder) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteJSONL(&sb, r); err != nil {
		t.Fatal(err)
	}
	if err := WriteSlotsJSONL(&sb, r.Slots(), "reset-test"); err != nil {
		t.Fatal(err)
	}
	r.withLive(func() { writePrometheus(&sb, r.Metrics()) })
	return sb.String()
}

// TestResetByteIdentity is the recycling contract of the pooled pipeline: a
// recorder that ran a workload, was Reset, and ran the same workload again
// exports byte-identically to a fresh recorder running it once. Nothing of
// the first run — values, ordering, registration state — may leak through.
func TestResetByteIdentity(t *testing.T) {
	fresh := NewRecorder()
	fresh.EnableSlotLedger()
	recordWorkload(fresh)
	want := exportAll(t, fresh)

	reused := NewRecorder()
	reused.EnableSlotLedger()
	for run := 0; run < 3; run++ {
		recordWorkload(reused)
		if got := exportAll(t, reused); got != want {
			t.Fatalf("run %d after %d resets: export differs from a fresh recorder", run+1, run)
		}
		reused.Reset()
	}
}

// TestResetSampledByteIdentity is the same contract with the sampler on: the
// admitted subset is identical run after run (pure function of identity), so
// the sampled export is too.
func TestResetSampledByteIdentity(t *testing.T) {
	fresh := NewRecorder()
	fresh.SetSampling(0.5, 21)
	recordWorkload(fresh)
	want := exportAll(t, fresh)
	if want == "" {
		t.Fatal("empty export")
	}

	reused := NewRecorder()
	reused.SetSampling(0.5, 21)
	recordWorkload(reused)
	reused.Reset()
	recordWorkload(reused)
	if got := exportAll(t, reused); got != want {
		t.Fatal("sampled export differs after Reset reuse")
	}
}

// TestResetSteadyZeroAlloc is the steady-state half of the contract: once a
// recorder has been through one workload + Reset cycle, further cycles touch
// only recycled storage. The ObsEnabledSteady, ObsSampled and
// LabeledRegistry benchmarks' ops are such cycles and are pinned at zero
// here too.
func TestResetSteadyZeroAlloc(t *testing.T) {
	r := NewRecorder()
	r.EnableSlotLedger()
	recordWorkload(r)
	r.Reset()
	recordWorkload(r) // second fill: every slab now at high-water capacity
	r.Reset()
	if allocs := testing.AllocsPerRun(10, func() {
		recordWorkload(r)
		r.Reset()
	}); allocs > 0 {
		t.Fatalf("steady-state workload+Reset allocated %.1f times per run, want 0", allocs)
	}
	for name, op := range map[string]func(){
		"ObsEnabledSteady": obsEnabledSteadyOp(),
		"ObsSampled":       obsSampledOp(),
		"LabeledRegistry":  labeledRegistryOp(),
	} {
		if n := testing.AllocsPerRun(20, op); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}
