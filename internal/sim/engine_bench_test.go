package sim

import "testing"

// The engine's micro-benchmarks isolate the DES core: a fixed script of
// benchEvents leaf events, no model code. Each entry's op body runs both
// under `go test -bench` and under an exact allocation pin, so its books
// checks and its allocation count hold under plain `go test` as well.

// benchEvents is the events one benchmark op schedules.
const benchEvents = 4096

// engineBooks is a snapshot of the engine's queue counters.
type engineBooks struct{ pushes, pops, steps uint64 }

func booksOf(e *Engine) engineBooks {
	return engineBooks{e.Pushes(), e.Pops(), e.Steps()}
}

// checkBooks fails tb unless e's counters moved from before by exactly want.
// Each op runs a fixed script, so its pushes, pops and steps are known
// exactly; any other change means the engine's books and its work
// diverged.
func checkBooks(tb testing.TB, e *Engine, before, want engineBooks) {
	now := booksOf(e)
	got := engineBooks{now.pushes - before.pushes, now.pops - before.pops, now.steps - before.steps}
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
// warmed path. The op's engine does not escape, so it lives on the op's
// stack. It is kept out of line so the pin and the benchmark run this one
// compiled closure: inlined into a test, the closure is recompiled as a copy
// that calls NewEngine out of line, which heap-allocates the engine and reads
// one allocation more than the benchmark.
//
//go:noinline
func engineSchedule(tb testing.TB) func() {
	return func() {
		e := NewEngine()
		for j := 0; j < benchEvents; j++ {
			e.Schedule(scriptTime(0, j), "e", Func(func() {}))
		}
		e.RunAll()
		checkBooks(tb, e, engineBooks{}, engineBooks{pushes: benchEvents, pops: benchEvents, steps: benchEvents})
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
			e.Schedule(scriptTime(base, j), "e", Func(func() {}))
		}
		e.RunAll()
		checkBooks(tb, e, before, engineBooks{pushes: benchEvents, pops: benchEvents, steps: benchEvents})
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

func BenchmarkEngineScheduleSteady(b *testing.B) {
	runOps(b, engineScheduleSteady)
	b.ReportMetric(float64(b.N)*benchEvents/b.Elapsed().Seconds(), "events/sec")
}

// TestEngineScheduleAllocs pins the fresh-engine benchmark's allocations
// per op at exactly the count `go test -bench` prints: its 64 node-pool
// slabs (benchEvents / slabSize), the engine itself staying on the stack. A
// rise fails, and so does a fall, so the pin moves only on purpose. The
// warmed op is pinned at zero by TestSteadyStateScheduleAllocsZero.
func TestEngineScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race adds allocations of its own")
	}
	const want = benchEvents / slabSize
	if got := testing.AllocsPerRun(20, engineSchedule(t)); got != want {
		t.Errorf("EngineSchedule: %v allocs/op, want %d", got, want)
	}
}
