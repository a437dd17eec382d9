package urllcsim

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"urllcsim/internal/obs"
	"urllcsim/internal/obs/prof"
)

// profScenario runs the reference scenario with the given recorder and an
// optional self-profiler attached, returning everything the simulation
// produced plus the profile report.
func profScenario(t *testing.T, rec *obs.Recorder, profile bool) ([]PacketResult, *obs.Recorder, *prof.Report) {
	t.Helper()
	sc, err := NewScenario(ScenarioConfig{
		Pattern: PatternDDDU, SlotScale: Slot0p5ms, Radio: RadioUSB2,
		Seed: 7, Deadline: 500 * time.Microsecond, Obs: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	var p *prof.Profiler
	if profile {
		p = prof.Attach(sc.Engine())
	}
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		sc.SendUplink(at+137*time.Microsecond, 32)
		sc.SendDownlink(at+731*time.Microsecond, 32)
	}
	results := sc.Run(100 * 2 * time.Millisecond)
	var rep *prof.Report
	if p != nil {
		rep = p.Finish()
	}
	return results, rec, rep
}

// TestProfilerDeterminism is the in-process form of the PR 1 byte-identical
// contract, extended to the self-profiler: attaching it must not change one
// bit of what the simulation computes — packet results, recorded spans,
// outcomes and the metrics registry must all be identical with and without
// the profiler, even though the profiler rides the same engine sink dispatch
// the recorder uses. (The cmd-level equivalent: `urllcsim` with and without
// -prof-out prints identical scenario output, since -prof-out writes only to
// its own file and stderr.)
func TestProfilerDeterminism(t *testing.T) {
	plainResults, plainRec, _ := profScenario(t, obs.NewRecorder(), false)
	profResults, profRec, rep := profScenario(t, obs.NewRecorder(), true)

	if !reflect.DeepEqual(plainResults, profResults) {
		t.Fatal("packet results differ with the profiler attached")
	}
	if !slices.Equal(slices.Collect(plainRec.Spans().All()), slices.Collect(profRec.Spans().All())) {
		t.Fatal("recorded spans differ with the profiler attached")
	}
	if !slices.Equal(slices.Collect(plainRec.Outcomes().All()), slices.Collect(profRec.Outcomes().All())) {
		t.Fatal("recorded outcomes differ with the profiler attached")
	}
	if a, b := plainRec.Metrics().Summary(), profRec.Metrics().Summary(); a != b {
		t.Fatalf("metrics registries diverged:\n--- without profiler ---\n%s--- with profiler ---\n%s", a, b)
	}
	if rep == nil || rep.Events == 0 {
		t.Fatal("profiler observed nothing while staying invisible")
	}
}

// TestProfilerPartition asserts the profiler's accounting invariant on a
// full-stack run: per-event-type wall times partition the attributed
// event-loop wall time exactly (they are closed intervals summed in integer
// nanoseconds), the attributed time never exceeds the attach-to-finish wall
// time, and the per-type counts sum to the engine's own step count.
func TestProfilerPartition(t *testing.T) {
	_, _, rep := profScenario(t, nil, true)
	if len(rep.Types) == 0 {
		t.Fatal("no event types profiled")
	}
	var wall int64
	var count uint64
	for _, s := range rep.Types {
		if s.WallNs < 0 {
			t.Fatalf("%s: negative wall time %d", s.Key, s.WallNs)
		}
		wall += s.WallNs
		count += s.Count
	}
	if wall != rep.AttributedNs {
		t.Fatalf("per-type wall sums to %d ns, attributed total is %d ns (Δ %d)",
			wall, rep.AttributedNs, wall-rep.AttributedNs)
	}
	if rep.AttributedNs > rep.WallNs {
		t.Fatalf("attributed %d ns exceeds total wall %d ns", rep.AttributedNs, rep.WallNs)
	}
	if count != rep.Events {
		t.Fatalf("per-type counts sum to %d, events total is %d", count, rep.Events)
	}
	if rep.Heap.Pushes < rep.Events {
		t.Fatalf("heap pushes %d < fired events %d", rep.Heap.Pushes, rep.Events)
	}
	// Every pop fires an event (the wheel excises cancellations instead of
	// popping them), so the profiled window's pops equal its event count —
	// the engine's books and the profiler's attribution must agree exactly.
	if rep.Heap.Pops != rep.Events {
		t.Fatalf("heap pops %d != fired events %d", rep.Heap.Pops, rep.Events)
	}
	if rep.Heap.Pushes < rep.Heap.Pops+rep.Heap.Cancels {
		t.Fatalf("heap pushes %d < pops %d + cancels %d", rep.Heap.Pushes, rep.Heap.Pops, rep.Heap.Cancels)
	}
	// The reference scenario advances 80 packets × 2 ms of virtual time in
	// well under a second of wall time on any machine: the ratio must be
	// finite and positive, and events/sec must be consistent with the totals.
	if rep.SimWallRatio <= 0 {
		t.Fatalf("sim/wall ratio %f not positive", rep.SimWallRatio)
	}
	wantEPS := float64(rep.Events) / (float64(rep.AttributedNs) / 1e9)
	if diff := rep.EventsPerSec - wantEPS; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("events/sec %f inconsistent with totals (want %f)", rep.EventsPerSec, wantEPS)
	}
}
