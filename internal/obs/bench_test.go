package obs

import (
	"runtime"
	"testing"

	"urllcsim/internal/core"
	"urllcsim/internal/sim"
)

// The recorder's micro-benchmarks: the record, sampling and labeled-family
// hot paths, enabled and disabled. Each entry's op body runs both under
// `go test -bench` and under an exact allocation pin.

// benchRecords is the records of each kind one benchmark op makes.
const benchRecords = 1024

// recordMix makes benchRecords each of the three calls model code makes
// most: a counter bump, a latency observation and a span append.
func recordMix(rec *Recorder) {
	timing := rec.TimingH("bench.timing")
	for j := 0; j < benchRecords; j++ {
		rec.Count("bench.counter", 1)
		timing.Observe(sim.Duration(j) * sim.Microsecond)
		rec.PacketSpan(j, DirUL, LayerMAC, "bench", core.Processing,
			sim.Time(j*1000), sim.Microsecond)
	}
}

// labeledUEs is the UEs a labeled benchmark op spreads its records over.
const labeledUEs = 8

// labeledRecords makes benchRecords per-UE counter, gauge and histogram
// family updates through handles created once, the way the node layer holds
// them. Keys are small structs, so once every row exists an update is a map
// lookup plus the instrument update, with no label strings built.
func labeledRecords(rec *Recorder) {
	pkt := CounterFamH[PktEvent](rec, "pkt.by_ue")
	take := GaugeFamH[UEKey](rec, "slot.ue_dl_take_bytes")
	lat := HistFamH[UEDir](rec, "lat.by_ue")
	for j := 0; j < benchRecords; j++ {
		ue := j % labeledUEs
		pkt.Add(PktEvent{UE: ue, Dir: DirUL, Event: FateDelivered}, 1)
		take.Set(UEKey{UE: ue}, float64(j))
		lat.Observe(UEDir{UE: ue, Dir: DirUL}, sim.Duration(j)*sim.Microsecond)
	}
}

// obsRecordOp is one ObsRecord op: the record mix on a fresh recorder.
func obsRecordOp() { recordMix(NewRecorder()) }

// obsDisabledOp is one ObsDisabled op: the record mix on a nil recorder, the
// disabled path the tracing-overhead gate protects.
func obsDisabledOp() { recordMix(nil) }

// labeledDisabledOp is one LabeledDisabled op: the labeled updates on a nil
// recorder, what every unlabeled run pays for the dimensional layer.
func labeledDisabledOp() { labeledRecords(nil) }

// steadyOp returns the op record(rec) then rec.Reset on a recorder it has
// warmed with one op, so every slab, histogram page and family row is at
// its high-water capacity: the reuse cycle of a sweep replica.
func steadyOp(rec *Recorder, record func(*Recorder)) func() {
	op := func() {
		record(rec)
		rec.Reset()
	}
	op()
	return op
}

// obsEnabledSteadyOp returns one ObsEnabledSteady op: the record mix on a
// warmed recorder, then Reset.
func obsEnabledSteadyOp() func() { return steadyOp(NewRecorder(), recordMix) }

// obsSampledOp returns one ObsSampled op: obsEnabledSteadyOp with a 1/16
// deterministic head sample, so only the admitted spans are retained. The
// gap to ObsEnabledSteady is what -sample-rate buys on the record path.
func obsSampledOp() func() {
	rec := NewRecorder()
	rec.SetSampling(1.0/16, 1)
	return steadyOp(rec, recordMix)
}

// labeledRegistryOp returns one LabeledRegistry op: the labeled updates on
// a warmed recorder, then Reset. Fresh family maps, with their random hash
// seeds, would not allocate the same count every op.
func labeledRegistryOp() func() { return steadyOp(NewRecorder(), labeledRecords) }

// runOps runs op b.N times, timing only the ops, and reports the records
// made per second.
func runOps(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.N)*benchRecords*3/b.Elapsed().Seconds(), "records/sec")
}

func BenchmarkObsRecord(b *testing.B)        { runOps(b, obsRecordOp) }
func BenchmarkObsDisabled(b *testing.B)      { runOps(b, obsDisabledOp) }
func BenchmarkObsEnabledSteady(b *testing.B) { runOps(b, obsEnabledSteadyOp()) }
func BenchmarkObsSampled(b *testing.B)       { runOps(b, obsSampledOp()) }
func BenchmarkLabeledRegistry(b *testing.B)  { runOps(b, labeledRegistryOp()) }
func BenchmarkLabeledDisabled(b *testing.B)  { runOps(b, labeledDisabledOp) }

// TestObsRecordAllocs pins ObsRecord's allocations per op at their measured
// count, a fresh recorder, its registry, instruments and first log blocks; a
// rise fails. The recorder itself is one of them because the timing handle
// keeps it, as every recorder the node records through is kept.
func TestObsRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race adds allocations of its own")
	}
	if n := testing.AllocsPerRun(20, obsRecordOp); n > 35 {
		t.Fatalf("ObsRecord: %v allocs/op, want ≤ 35", n)
	}
}

// TestDisabledZeroAlloc: recording on a nil recorder allocates nothing.
func TestDisabledZeroAlloc(t *testing.T) {
	for name, op := range map[string]func(){
		"ObsDisabled":     obsDisabledOp,
		"LabeledDisabled": labeledDisabledOp,
	} {
		if n := testing.AllocsPerRun(20, op); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

// TestLabeledRegistryWholeCount: every LabeledRegistry op allocates the
// same count, so the count a benchmark reports (total mallocs ÷ b.N,
// rounded down) is that count at any b.N, and its pin cannot flip between
// two readings.
func TestLabeledRegistryWholeCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op := labeledRegistryOp()
	runtime.GC() // start the collector's workers before counting: they are allocations too
	var counts []uint64
	for i := 0; i < 8; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		counts = append(counts, after.Mallocs-before.Mallocs)
	}
	for _, c := range counts {
		if c != counts[0] {
			t.Fatalf("allocations per op differ between ops: %v", counts)
		}
	}
	t.Logf("%d allocations per op", counts[0])
}
