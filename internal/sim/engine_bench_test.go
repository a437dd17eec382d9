package sim

import "testing"

// The engine's micro-benchmarks isolate the DES core: a fixed script of
// benchEvents leaf events, no model code. Each entry's op body runs both
// under `go test -bench` and under an exact allocation pin, so its books
// checks and its allocation count hold under plain `go test` as well.

// benchEvents is the events one benchmark op schedules.
const benchEvents = 4096

// engineBooks is a snapshot of the engine's queue counters.
type engineBooks struct{ pushes, pops, cancels, steps uint64 }

func booksOf(e *Engine) engineBooks {
	return engineBooks{e.Pushes(), e.Pops(), e.Cancels(), e.Steps()}
}

// checkBooks fails tb unless e's counters moved from before by exactly want.
// Each op runs a fixed script, so its pushes, pops, cancels and steps are
// known exactly; any other change means the engine's books and its work
// diverged.
func checkBooks(tb testing.TB, e *Engine, before, want engineBooks) {
	now := booksOf(e)
	got := engineBooks{now.pushes - before.pushes, now.pops - before.pops,
		now.cancels - before.cancels, now.steps - before.steps}
	if got != want {
		tb.Fatalf("engine books moved %+v in one op, want %+v", got, want)
	}
}

// scriptTime is the instant of script event j after base: a fixed scatter
// over 100 µs.
func scriptTime(base Time, j int) Time { return base + Time((j*2654435761)%100000) }

// engineSchedule returns one EngineSchedule op: a fresh engine pushes
// benchEvents events and drains them, so the op includes filling the node
// pool (one allocation per 64-node slab); see engineScheduleSteady for the
// warmed path.
func engineSchedule(tb testing.TB) func() {
	return func() {
		e := NewEngine()
		for j := 0; j < benchEvents; j++ {
			e.Schedule(scriptTime(0, j), "e", func() {})
		}
		e.RunAll()
		checkBooks(tb, e, engineBooks{}, engineBooks{pushes: benchEvents, pops: benchEvents, steps: benchEvents})
	}
}

// engineScheduleCancel returns one EngineScheduleCancel op: engineSchedule
// with every other queued event cancelled before the drain — the O(1)
// excision path plus live-count bookkeeping.
func engineScheduleCancel(tb testing.TB) func() {
	return func() {
		e := NewEngine()
		evs := make([]Event, 0, benchEvents)
		for j := 0; j < benchEvents; j++ {
			evs = append(evs, e.Schedule(scriptTime(0, j), "e", func() {}))
		}
		for j := 0; j < benchEvents; j += 2 {
			evs[j].Cancel()
		}
		if e.Pending() != benchEvents/2 {
			tb.Fatalf("Pending = %d, want %d", e.Pending(), benchEvents/2)
		}
		e.RunAll()
		checkBooks(tb, e, engineBooks{}, engineBooks{pushes: benchEvents, pops: benchEvents / 2,
			cancels: benchEvents / 2, steps: benchEvents / 2})
	}
}

// engineScheduleSteady returns one EngineScheduleSteady op on an engine it
// has warmed: the pooled steady state the timing wheel is built for, where
// every schedule+fire cycle reuses freelist nodes and allocates nothing.
func engineScheduleSteady(tb testing.TB) func() {
	e := NewEngine()
	op := func() {
		before, base := booksOf(e), e.Now()
		for j := 0; j < benchEvents; j++ {
			e.Schedule(scriptTime(base, j), "e", func() {})
		}
		e.RunAll()
		checkBooks(tb, e, before, engineBooks{pushes: benchEvents, pops: benchEvents, steps: benchEvents})
	}
	op()
	return op
}

// engineCancelStorm returns one EngineCancelStorm op on a warmed engine: the
// HARQ/CG retransmission-cancel pattern at its most hostile, every scheduled
// event cancelled before it can fire. The queue must end each op empty and,
// with O(1) excision and node pooling, the op must not allocate.
func engineCancelStorm(tb testing.TB) func() {
	e := NewEngine()
	evs := make([]Event, benchEvents)
	op := func() {
		before, base := booksOf(e), e.Now()
		for j := range evs {
			evs[j] = e.Schedule(scriptTime(base, j), "e", func() {})
		}
		for j := range evs {
			evs[j].Cancel()
		}
		checkBooks(tb, e, before, engineBooks{pushes: benchEvents, cancels: benchEvents})
		if e.Pending() != 0 {
			tb.Fatalf("Pending = %d after cancel storm, want 0", e.Pending())
		}
	}
	op()
	return op
}

// runOps runs the op newOp sets up b.N times, timing only the ops.
func runOps(b *testing.B, newOp func(testing.TB) func()) {
	b.ReportAllocs()
	op := newOp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkEngineSchedule(b *testing.B) {
	runOps(b, engineSchedule)
	b.ReportMetric(float64(b.N)*benchEvents/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkEngineScheduleCancel(b *testing.B) {
	runOps(b, engineScheduleCancel)
	b.ReportMetric(float64(b.N)*benchEvents/2/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkEngineScheduleSteady(b *testing.B) {
	runOps(b, engineScheduleSteady)
	b.ReportMetric(float64(b.N)*benchEvents/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkEngineCancelStorm(b *testing.B) {
	runOps(b, engineCancelStorm)
	b.ReportMetric(float64(b.N)*benchEvents/b.Elapsed().Seconds(), "cancels/sec")
}

// TestEngineScheduleAllocs pins the fresh-engine benchmarks' allocations
// per op at their measured counts, the engine and its node-pool slabs: a
// rise fails. The warmed entries are pinned at zero by
// TestSteadyStateScheduleAllocsZero.
func TestEngineScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race adds allocations of its own")
	}
	for _, pin := range []struct {
		name   string
		newOp  func(testing.TB) func()
		allocs float64
	}{
		{"EngineSchedule", engineSchedule, 65},
		{"EngineScheduleCancel", engineScheduleCancel, 66},
	} {
		if got := testing.AllocsPerRun(20, pin.newOp(t)); got > pin.allocs {
			t.Errorf("%s: %v allocs/op, want ≤ %v", pin.name, got, pin.allocs)
		}
	}
}
