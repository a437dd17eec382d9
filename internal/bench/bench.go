// Package bench declares the simulator's component micro-benchmarks and the
// machine-readable BENCH file format that cmd/urllc-bench persists, compares
// and gates on. Each entry isolates one layer — sim.Engine scheduling, the
// analytic worst-case engine, keyed PDCP security, the obs record, labeled
// and export paths — so a regression shows up attributed to that layer. The
// gate is exact: allocs/op may not rise above the baseline's. ns/op, B/op
// and the rate extras are recorded for information only; end-to-end timing
// is measured by the interleaved A/B over benchmark/ (`make ab`).
package bench

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"urllcsim"
	"urllcsim/internal/core"
	"urllcsim/internal/crypto5g"
	"urllcsim/internal/nr"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/obs/flight"
	"urllcsim/internal/sim"
)

// Benchmark is one declared suite entry. F follows the standard testing
// contract so entries run identically under cmd/urllc-bench
// (testing.Benchmark) and `go test -bench`.
type Benchmark struct {
	Name string
	Desc string
	F    func(b *testing.B)
}

// failures holds the message of each entry that failed, by its *testing.B:
// testing.Benchmark discards a failing benchmark's log, so entries fail
// through fatalf and Run hands the message on.
var failures sync.Map

// fatalf is b.Fatalf that also keeps the message for Run.
func fatalf(b *testing.B, format string, args ...any) {
	b.Helper()
	msg := fmt.Sprintf(format, args...)
	failures.Store(b, msg)
	b.Fatal(msg)
}

// Run runs the entry through testing.Benchmark. When the entry fails, the
// error carries its failure message.
func (bm Benchmark) Run() (testing.BenchmarkResult, error) {
	var tb *testing.B
	r := testing.Benchmark(func(b *testing.B) {
		tb = b
		bm.F(b)
	})
	msg, failed := failures.LoadAndDelete(tb)
	switch {
	case failed:
		return r, fmt.Errorf("%s: %s", bm.Name, msg)
	case r.N == 0:
		return r, fmt.Errorf("%s: benchmark did not run", bm.Name)
	}
	return r, nil
}

// Suite returns the declared benchmarks in a fixed order — the order is part
// of the BENCH file contract, so trajectories diff cleanly across commits.
func Suite() []Benchmark {
	return []Benchmark{
		{
			Name: "WorstCaseEngine",
			Desc: "analytic worst-case walk (grant-based UL)",
			F:    worstCaseEngine,
		},
		{
			Name: "Table1",
			Desc: "full feasibility matrix (Table 1) per op",
			F:    table1,
		},
		{
			Name: "EngineSchedule",
			Desc: "sim.Engine schedule+fire of 4096 leaf events",
			F:    engineSchedule,
		},
		{
			Name: "EngineScheduleCancel",
			Desc: "sim.Engine with half the queue cancelled (O(1) excision path)",
			F:    engineScheduleCancel,
		},
		{
			Name: "EngineScheduleSteady",
			Desc: "warmed sim.Engine schedule+fire of 4096 events per op (pooled steady state, 0 allocs)",
			F:    engineScheduleSteady,
		},
		{
			Name: "EngineCancelStorm",
			Desc: "warmed sim.Engine schedule+cancel churn (HARQ/CG storm; queue stays empty)",
			F:    engineCancelStorm,
		},
		{
			Name: "PDCPKeyed",
			Desc: "keyed NEA2+NIA2 over a 64 B PDU into a caller buffer (steady state, 0 allocs)",
			F:    pdcpKeyed,
		},
		{
			Name: "ObsRecord",
			Desc: "obs.Recorder count/observe/span hot path, enabled",
			F:    obsRecord,
		},
		{
			Name: "ObsDisabled",
			Desc: "obs.Recorder hot path with a nil recorder (must stay ~free)",
			F:    obsDisabled,
		},
		{
			Name: "ObsEnabledSteady",
			Desc: "warmed recorder record+Reset cycle (pooled steady state, 0 allocs)",
			F:    obsEnabledSteady,
		},
		{
			Name: "ObsSampled",
			Desc: "record+Reset cycle with 1/16 deterministic span sampling",
			F:    obsSampled,
		},
		{
			Name: "ObsExportJSONL",
			Desc: "trace, slot-ledger and KPI JSONL exports of a recorded 8-UE cell to io.Discard",
			F:    obsExportJSONL,
		},
		{
			Name: "LabeledRegistry",
			Desc: "labeled-family hot path (CounterFamH/GaugeFamH/HistFamH handles over 8 UEs) on a warmed recorder Reset each op (steady state, 0 allocs)",
			F:    labeledRegistry,
		},
		{
			Name: "LabeledDisabled",
			Desc: "labeled-family handle hot path with a nil recorder (must stay ~free)",
			F:    labeledDisabled,
		},
		{
			Name: "FlightRecorderOverhead",
			Desc: "full-stack DL packets through the DDDU/0.5ms/USB2 scenario with the flight recorder tapped in",
			F:    flightRecorderOverhead,
		},
	}
}

func worstCaseEngine(b *testing.B) {
	b.ReportAllocs()
	cfg := core.ConfigDM(nr.Mu2, core.DefaultAssumptions())
	for i := 0; i < b.N; i++ {
		if _, err := cfg.WorstCase(core.GrantBasedUL); err != nil {
			fatalf(b, "%v", err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "walks/sec")
}

func table1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Table1(); err != nil {
			fatalf(b, "%v", err)
		}
	}
}

// engineBooks is a snapshot of sim.Engine's queue counters.
type engineBooks struct{ pushes, pops, cancels, steps uint64 }

func booksOf(eng *sim.Engine) engineBooks {
	return engineBooks{eng.Pushes(), eng.Pops(), eng.Cancels(), eng.Steps()}
}

// checkBooks fails the benchmark unless the engine's counters moved from
// before by exactly want. Each engine entry runs a fixed event script, so
// its pushes, pops, cancels and steps per op are known exactly; any other
// change means the engine's books and its work diverged.
func checkBooks(b *testing.B, eng *sim.Engine, before, want engineBooks) {
	now := booksOf(eng)
	got := engineBooks{now.pushes - before.pushes, now.pops - before.pops,
		now.cancels - before.cancels, now.steps - before.steps}
	if got != want {
		fatalf(b, "engine books moved %+v in one op, want %+v", got, want)
	}
}

// engineSchedule isolates the DES core: push 4096 leaf events and drain
// them. ns/op here is pure queue + dispatch cost, no model code. The engine
// is fresh each op, so this includes the one-time pool fill (one allocation
// per 64-node slab); see EngineScheduleSteady for the warmed zero-alloc
// path.
func engineSchedule(b *testing.B) {
	b.ReportAllocs()
	const n = 4096
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		for j := 0; j < n; j++ {
			eng.Schedule(sim.Time((j*2654435761)%100000), "e", func() {})
		}
		eng.RunAll()
		checkBooks(b, eng, engineBooks{}, engineBooks{pushes: n, pops: n, steps: n})
	}
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "events/sec")
}

// engineScheduleCancel cancels every other queued event before draining —
// the O(1) excision path plus live-count bookkeeping.
func engineScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	const n = 4096
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		evs := make([]sim.Event, 0, n)
		for j := 0; j < n; j++ {
			evs = append(evs, eng.Schedule(sim.Time((j*2654435761)%100000), "e", func() {}))
		}
		for j := 0; j < n; j += 2 {
			evs[j].Cancel()
		}
		if eng.Pending() != n/2 {
			fatalf(b, "Pending = %d, want %d", eng.Pending(), n/2)
		}
		eng.RunAll()
		checkBooks(b, eng, engineBooks{}, engineBooks{pushes: n, pops: n / 2, cancels: n / 2, steps: n / 2})
	}
	b.ReportMetric(float64(b.N)*n/2/b.Elapsed().Seconds(), "events/sec")
}

// engineScheduleSteady measures the pooled steady state the timing wheel is
// built for: one long-lived engine whose freelist is warm, so every op's
// 4096 schedule+fire cycles must allocate nothing. The alloc column here is
// the zero-alloc contract `urllc-bench -check` gates on.
func engineScheduleSteady(b *testing.B) {
	b.ReportAllocs()
	const n = 4096
	eng := sim.NewEngine()
	cycle := func() {
		before, base := booksOf(eng), eng.Now()
		for j := 0; j < n; j++ {
			eng.Schedule(base+sim.Time((j*2654435761)%100000), "e", func() {})
		}
		eng.RunAll()
		checkBooks(b, eng, before, engineBooks{pushes: n, pops: n, steps: n})
	}
	cycle() // warm the node pool so b.N ops hit the freelist only
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "events/sec")
}

// engineCancelStorm is the HARQ/CG retransmission-cancel pattern at its most
// hostile: every scheduled event is cancelled before it can fire. With O(1)
// excision and node pooling the queue must stay empty and the op must not
// allocate once the pool is warm.
func engineCancelStorm(b *testing.B) {
	b.ReportAllocs()
	const n = 4096
	eng := sim.NewEngine()
	evs := make([]sim.Event, n)
	cycle := func() {
		before, base := booksOf(eng), eng.Now()
		for j := 0; j < n; j++ {
			evs[j] = eng.Schedule(base+sim.Time((j*2654435761)%100000), "e", func() {})
		}
		for j := 0; j < n; j++ {
			evs[j].Cancel()
		}
		checkBooks(b, eng, before, engineBooks{pushes: n, cancels: n})
	}
	cycle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	if eng.Pending() != 0 {
		fatalf(b, "Pending = %d after cancel storm, want 0", eng.Pending())
	}
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "cancels/sec")
}

// pdcpKeyed is the per-PDU security work of one PDCP entity once its keys
// are expanded: cipher a 64 B PDU into a caller buffer and compute its MAC-I.
// The alloc column is the zero-alloc contract `urllc-bench -check` gates on.
func pdcpKeyed(b *testing.B) {
	b.ReportAllocs()
	key, err := crypto5g.NewKey(make([]byte, crypto5g.KeySize))
	if err != nil {
		fatalf(b, "%v", err)
	}
	pdu := make([]byte, 64)
	out := make([]byte, len(pdu))
	b.SetBytes(int64(len(pdu)))
	for i := 0; i < b.N; i++ {
		key.NEA2(uint32(i), 1, crypto5g.Uplink, out, pdu)
		key.NIA2(uint32(i), 1, crypto5g.Uplink, out)
	}
}

// obsRecord measures the enabled recorder hot path: the three calls model
// code makes most (counter bump, latency observation, span append).
func obsRecord(b *testing.B) {
	b.ReportAllocs()
	const n = 1024
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		for j := 0; j < n; j++ {
			rec.Count("bench.counter", 1)
			rec.Observe("bench.timing", sim.Duration(j)*sim.Microsecond)
			rec.PacketSpan(j, obs.DirUL, obs.LayerMAC, "bench", core.Processing,
				sim.Time(j*1000), sim.Microsecond)
		}
	}
	b.ReportMetric(float64(b.N)*n*3/b.Elapsed().Seconds(), "records/sec")
}

// obsEnabledSteady measures the pooled steady state the observability layer
// is built for: one long-lived recorder, each op recording a counter/timing/
// span mix and then Reset — the reuse cycle a sweep replica or a long-running
// service drives. Once warm, every slab (span log, histogram buckets,
// registry instruments) is recycled in place, so the alloc column is the
// zero-alloc contract `urllc-bench -check` gates on.
func obsEnabledSteady(b *testing.B) {
	b.ReportAllocs()
	const n = 1024
	rec := obs.NewRecorder()
	cycle := func() {
		for j := 0; j < n; j++ {
			rec.Count("bench.counter", 1)
			rec.Observe("bench.timing", sim.Duration(j)*sim.Microsecond)
			rec.PacketSpan(j, obs.DirUL, obs.LayerMAC, "bench", core.Processing,
				sim.Time(j*1000), sim.Microsecond)
		}
		rec.Reset()
	}
	cycle() // warm: grow every slab to its high-water capacity
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(b.N)*n*3/b.Elapsed().Seconds(), "records/sec")
}

// obsSampled is obsEnabledSteady with a 1/16 deterministic head sample: the
// counter and timing records are unaffected, span retention drops to the
// admitted subset. The gap to ObsEnabledSteady is what `-sample-rate` buys
// on the record path.
func obsSampled(b *testing.B) {
	b.ReportAllocs()
	const n = 1024
	rec := obs.NewRecorder()
	rec.SetSampling(1.0/16, 1)
	cycle := func() {
		for j := 0; j < n; j++ {
			rec.Count("bench.counter", 1)
			rec.Observe("bench.timing", sim.Duration(j)*sim.Microsecond)
			rec.PacketSpan(j, obs.DirUL, obs.LayerMAC, "bench", core.Processing,
				sim.Time(j*1000), sim.Microsecond)
		}
		rec.Reset()
	}
	cycle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(b.N)*n*3/b.Elapsed().Seconds(), "records/sec")
}

// obsExportJSONL times the export phase of a traced run on its own: the
// three JSONL writers urllcsim's -jsonl-out, -slots-out and -kpi-out run,
// over one fixed recorded cell (8 UEs, 200 UL + 200 DL packets, slot
// ledger on). The cell is simulated once, outside the timer; the alloc
// column is the writers' fixed per-call cost, which must not grow with the
// record count.
func obsExportJSONL(b *testing.B) {
	b.ReportAllocs()
	rec := obs.NewRecorder()
	rec.EnableSlotLedger()
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern: urllcsim.PatternDDDU, SlotScale: urllcsim.Slot0p5ms,
		Radio: urllcsim.RadioUSB2, UEs: 8, Seed: 1, Obs: rec,
	})
	if err != nil {
		fatalf(b, "%v", err)
	}
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		sc.SendUplinkFrom(i%8, at+137*time.Microsecond, 32)
		sc.SendDownlinkFrom((i+3)%8, at+731*time.Microsecond, 32)
	}
	sc.Run(time.Duration(200+50) * 2 * time.Millisecond)
	rep := analyze.ComputeKPI(analyze.FromRecorder(rec), "bench")
	records := rec.Spans().Len() + rec.Outcomes().Len() + len(rec.Slots())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obs.WriteJSONL(io.Discard, rec); err != nil {
			fatalf(b, "%v", err)
		}
		if err := obs.WriteSlotsJSONL(io.Discard, rec.Slots(), "bench"); err != nil {
			fatalf(b, "%v", err)
		}
		if err := analyze.WriteKPIJSONL(io.Discard, rep); err != nil {
			fatalf(b, "%v", err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(records)/b.Elapsed().Seconds(), "records/sec")
}

// flightRecorderOverhead runs full-stack DL packets through the
// DDDU/0.5ms/USB2 scenario with a retention-free recorder and a
// flight-recorder tap attached — the exact configuration `urllcsim
// -flight-out` runs. Its allocs/op is gated like every entry's; its timing
// is information only.
func flightRecorderOverhead(b *testing.B) {
	b.ReportAllocs()
	rec := obs.NewRecorder()
	rec.SetRetention(false, false)
	fr := flight.New(flight.Config{
		Deadline: 500 * sim.Microsecond, TopK: flight.DefaultTopK,
	})
	rec.SetTap(fr)
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern: urllcsim.PatternDDDU, SlotScale: urllcsim.Slot0p5ms,
		Radio: urllcsim.RadioUSB2, Seed: 1, Obs: rec,
	})
	if err != nil {
		fatalf(b, "%v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.SendDownlink(time.Duration(i)*2*time.Millisecond, 32)
	}
	rs := sc.Run(time.Duration(b.N+50) * 2 * time.Millisecond)
	if len(rs) != b.N {
		fatalf(b, "resolved %d/%d", len(rs), b.N)
	}
	if st := fr.Stats(); st.Resolved != b.N {
		fatalf(b, "flight recorder resolved %d/%d", st.Resolved, b.N)
	}
	b.ReportMetric(float64(sc.Engine().Steps())/b.Elapsed().Seconds(), "events/sec")
}

// labeledRegistry measures the dimensional hot path: the per-UE counter,
// gauge and histogram family updates the node layer performs per packet and
// per tick. Keys are small structs, so steady state (all rows allocated)
// should be a map lookup plus the instrument update, no label-string
// building. One recorder is warmed and Reset each op, as a sweep replica
// reuses it, so every op does the same work and allocates the same count;
// fresh maps, with their random hash seeds, would not.
func labeledRegistry(b *testing.B) {
	b.ReportAllocs()
	rec := obs.NewRecorder()
	labeledOp(rec) // warm: every row, histogram page and map bucket
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labeledOp(rec)
	}
	b.ReportMetric(float64(b.N)*labeledN*3/b.Elapsed().Seconds(), "records/sec")
}

// labeledN and labeledUEs size one LabeledRegistry op.
const labeledN, labeledUEs = 1024, 8

// labeledOp is one LabeledRegistry op: Reset rec, then labeledRecords.
func labeledOp(rec *obs.Recorder) {
	rec.Reset()
	labeledRecords(rec)
}

// labeledRecords performs labeledN family updates per kind over labeledUEs
// UEs through handles created once, the way the node layer holds them.
func labeledRecords(rec *obs.Recorder) {
	pkt := obs.CounterFamH[obs.PktEvent](rec, "pkt.by_ue")
	take := obs.GaugeFamH[obs.UEKey](rec, "slot.ue_dl_take_bytes")
	lat := obs.HistFamH[obs.UEDir](rec, "lat.by_ue")
	for j := 0; j < labeledN; j++ {
		ue := j % labeledUEs
		pkt.Add(obs.PktEvent{UE: ue, Dir: obs.DirUL, Event: "delivered"}, 1)
		take.Set(obs.UEKey{UE: ue}, float64(j))
		lat.Observe(obs.UEDir{UE: ue, Dir: obs.DirUL}, sim.Duration(j)*sim.Microsecond)
	}
}

// labeledDisabled is the same sequence against a nil recorder: the per-packet
// cost every unlabeled run pays for the dimensional layer existing.
func labeledDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		labeledRecords(nil)
	}
	b.ReportMetric(float64(b.N)*labeledN*3/b.Elapsed().Seconds(), "records/sec")
}

// obsDisabled measures the same call sequence against a nil recorder: the
// disabled path the ≤2 % tracing-overhead gate protects.
func obsDisabled(b *testing.B) {
	b.ReportAllocs()
	const n = 1024
	var rec *obs.Recorder
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			rec.Count("bench.counter", 1)
			rec.Observe("bench.timing", sim.Duration(j)*sim.Microsecond)
			rec.PacketSpan(j, obs.DirUL, obs.LayerMAC, "bench", core.Processing,
				sim.Time(j*1000), sim.Microsecond)
		}
	}
	b.ReportMetric(float64(b.N)*n*3/b.Elapsed().Seconds(), "records/sec")
}
