// Package bench declares the simulator's continuous-benchmark suite and the
// machine-readable BENCH file format that cmd/urllc-bench persists, compares
// and gates on. The suite covers the three speed-critical surfaces of the
// repository: full-stack scenario throughput (the event loop end to end),
// sweep scaling across worker counts (the parallel engine of
// internal/sweep), and the analytic engines — plus targeted micro-benchmarks
// for sim.Engine scheduling and the obs record hot paths, so a regression in
// any layer shows up attributed to that layer rather than smeared across a
// whole scenario run.
package bench

import (
	"testing"
	"time"

	"urllcsim"
	"urllcsim/internal/cell"
	"urllcsim/internal/core"
	"urllcsim/internal/crypto5g"
	"urllcsim/internal/nr"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/flight"
	"urllcsim/internal/sim"
	"urllcsim/internal/sweep"
)

// Benchmark is one declared suite entry. F follows the standard testing
// contract so entries run identically under cmd/urllc-bench
// (testing.Benchmark) and `go test -bench`.
type Benchmark struct {
	Name  string
	Desc  string
	Heavy bool // skipped in smoke/short runs
	F     func(b *testing.B)
}

// Suite returns the declared benchmarks in a fixed order — the order is part
// of the BENCH file contract, so trajectories diff cleanly across commits.
func Suite() []Benchmark {
	return []Benchmark{
		{
			Name: "ScenarioThroughput",
			Desc: "full-stack DL packets through the DDDU/0.5ms/USB2 scenario",
			F:    scenarioThroughput,
		},
		{
			Name: "ScenarioThroughputGF",
			Desc: "full-stack grant-free UL packets (the paper's fastest access mode)",
			F:    scenarioThroughputGF,
		},
		{
			Name: "WorstCaseEngine",
			Desc: "analytic worst-case walk (grant-based UL)",
			F:    worstCaseEngine,
		},
		{
			Name:  "Table1",
			Desc:  "full feasibility matrix (Table 1) per op",
			Heavy: true,
			F:     table1,
		},
		{
			Name:  "SweepScaling/p1",
			Desc:  "4-replica scenario sweep on 1 worker",
			Heavy: true,
			F:     sweepScaling(1),
		},
		{
			Name:  "SweepScaling/p2",
			Desc:  "4-replica scenario sweep on 2 workers",
			Heavy: true,
			F:     sweepScaling(2),
		},
		{
			Name:  "SweepScaling/p4",
			Desc:  "4-replica scenario sweep on 4 workers",
			Heavy: true,
			F:     sweepScaling(4),
		},
		{
			Name: "CellDynamic",
			Desc: "128-UE dynamic-grant cell through the real scheduler (UEs/sec)",
			F:    cellRun(cell.ModeDynamic),
		},
		{
			Name: "CellGrantFree",
			Desc: "128-UE grant-free cell with CG contention and backoff (UEs/sec)",
			F:    cellRun(cell.ModeGrantFree),
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
			Name: "LabeledRegistry",
			Desc: "labeled-family hot path (CountIn/GaugeIn/ObserveIn over 8 UEs), enabled",
			F:    labeledRegistry,
		},
		{
			Name: "LabeledDisabled",
			Desc: "labeled-family hot path with a nil recorder (must stay ~free)",
			F:    labeledDisabled,
		},
		{
			Name: "FlightRecorderOverhead",
			Desc: "full-stack scenario with the flight recorder tapped in (vs ScenarioThroughput)",
			F:    flightRecorderOverhead,
		},
	}
}

// Find returns the named suite entry.
func Find(name string) (Benchmark, bool) {
	for _, bm := range Suite() {
		if bm.Name == name {
			return bm, true
		}
	}
	return Benchmark{}, false
}

func scenarioThroughput(b *testing.B) {
	b.ReportAllocs()
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern: urllcsim.PatternDDDU, SlotScale: urllcsim.Slot0p5ms,
		Radio: urllcsim.RadioUSB2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.SendDownlink(time.Duration(i)*2*time.Millisecond, 32)
	}
	rs := sc.Run(time.Duration(b.N+50) * 2 * time.Millisecond)
	if len(rs) != b.N {
		b.Fatalf("resolved %d/%d", len(rs), b.N)
	}
	b.ReportMetric(float64(sc.Engine().Steps())/b.Elapsed().Seconds(), "events/sec")
}

func scenarioThroughputGF(b *testing.B) {
	b.ReportAllocs()
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern: urllcsim.PatternDM, SlotScale: urllcsim.Slot0p5ms,
		GrantFree: true, Radio: urllcsim.RadioUSB2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.SendUplink(time.Duration(i)*2*time.Millisecond+137*time.Microsecond, 32)
	}
	rs := sc.Run(time.Duration(b.N+50) * 2 * time.Millisecond)
	if len(rs) != b.N {
		b.Fatalf("resolved %d/%d", len(rs), b.N)
	}
	b.ReportMetric(float64(sc.Engine().Steps())/b.Elapsed().Seconds(), "events/sec")
}

func worstCaseEngine(b *testing.B) {
	b.ReportAllocs()
	cfg := core.ConfigDM(nr.Mu2, core.DefaultAssumptions())
	for i := 0; i < b.N; i++ {
		if _, err := cfg.WorstCase(core.GrantBasedUL); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "walks/sec")
}

func table1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepScaling runs a fixed 4-replica scenario grid through the sweep worker
// pool at the given width; comparing p1/p2/p4 ns/op across commits is the
// parallel-scaling trajectory PR 4 claimed but never measured.
func sweepScaling(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var events uint64
		for i := 0; i < b.N; i++ {
			outs, err := sweep.Run(workers, 4, func(shard int) (uint64, error) {
				sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
					Pattern: urllcsim.PatternDDDU, SlotScale: urllcsim.Slot0p5ms,
					Radio: urllcsim.RadioUSB2,
					Seed:  sweep.Seed(uint64(i+1), shard),
				})
				if err != nil {
					return 0, err
				}
				for p := 0; p < 20; p++ {
					at := time.Duration(p) * 2 * time.Millisecond
					sc.SendUplink(at+137*time.Microsecond, 32)
					sc.SendDownlink(at+731*time.Microsecond, 32)
				}
				sc.Run(time.Duration(20+50) * 2 * time.Millisecond)
				return sc.Engine().Steps(), nil
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range outs {
				events += n
			}
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	}
}

// cellRun is one whole many-UE cell per op: 128 machines, 4 cycles each,
// through the full scheduler/node stack. UEs/sec is the cell layer's
// capacity-planning number — how many concurrently active machines one
// wall-clock second of simulation buys at this load.
func cellRun(mode cell.Mode) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		const ues, cycles = 128, 4
		for i := 0; i < b.N; i++ {
			res, err := cell.Run(cell.Config{
				UEs:    ues,
				Mode:   mode,
				Cycles: cycles,
				Period: 20 * time.Millisecond,
				Seed:   uint64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Offered != ues*cycles {
				b.Fatalf("offered %d, want %d", res.Offered, ues*cycles)
			}
		}
		b.ReportMetric(float64(b.N)*ues/b.Elapsed().Seconds(), "UEs/sec")
	}
}

// engineSchedule isolates the DES core: push 4096 leaf events and drain
// them. ns/op here is pure queue + dispatch cost, no model code. The engine
// is fresh each op, so this includes the one-time pool fill (one allocation
// per 256-node slab); see EngineScheduleSteady for the warmed zero-alloc
// path.
func engineSchedule(b *testing.B) {
	b.ReportAllocs()
	const n = 4096
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		for j := 0; j < n; j++ {
			eng.Schedule(sim.Time((j*2654435761)%100000), "e", func() {})
		}
		if eng.RunAll(); eng.Steps() != n {
			b.Fatalf("fired %d/%d", eng.Steps(), n)
		}
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
			b.Fatalf("Pending = %d, want %d", eng.Pending(), n/2)
		}
		if eng.RunAll(); eng.Steps() != n/2 {
			b.Fatalf("fired %d/%d", eng.Steps(), n/2)
		}
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
		base := eng.Now()
		for j := 0; j < n; j++ {
			eng.Schedule(base+sim.Time((j*2654435761)%100000), "e", func() {})
		}
		eng.RunAll()
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
		base := eng.Now()
		for j := 0; j < n; j++ {
			evs[j] = eng.Schedule(base+sim.Time((j*2654435761)%100000), "e", func() {})
		}
		for j := 0; j < n; j++ {
			evs[j].Cancel()
		}
	}
	cycle()
	if eng.QueueLen() != 0 {
		b.Fatalf("QueueLen = %d after full cancel, want 0", eng.QueueLen())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	if eng.QueueLen() != 0 {
		b.Fatalf("QueueLen = %d after cancel storm, want 0", eng.QueueLen())
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
		b.Fatal(err)
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

// flightRecorderOverhead is scenarioThroughput with a retention-free
// recorder and a flight-recorder tap attached — the exact configuration
// `urllcsim -flight-out` runs. The events/sec gap between this entry and
// ScenarioThroughput is the flight recorder's whole-run cost, which the
// ≤2 % overhead budget for always-on tail forensics gates on.
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
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.SendDownlink(time.Duration(i)*2*time.Millisecond, 32)
	}
	rs := sc.Run(time.Duration(b.N+50) * 2 * time.Millisecond)
	if len(rs) != b.N {
		b.Fatalf("resolved %d/%d", len(rs), b.N)
	}
	if st := fr.Stats(); st.Resolved != b.N {
		b.Fatalf("flight recorder resolved %d/%d", st.Resolved, b.N)
	}
	b.ReportMetric(float64(sc.Engine().Steps())/b.Elapsed().Seconds(), "events/sec")
}

// labeledRegistry measures the dimensional hot path: the per-UE counter,
// gauge and histogram family updates the node layer performs per packet and
// per tick. Keys are small structs, so steady state (all rows allocated)
// should be a map lookup plus the instrument update, no label-string
// building.
func labeledRegistry(b *testing.B) {
	b.ReportAllocs()
	const n, ues = 1024, 8
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		for j := 0; j < n; j++ {
			ue := j % ues
			obs.CountIn(rec, "pkt.by_ue", obs.PktEvent{UE: ue, Dir: obs.DirUL, Event: "delivered"}, 1)
			obs.GaugeIn(rec, "slot.ue_dl_take_bytes", obs.UEKey{UE: ue}, float64(j))
			obs.ObserveIn(rec, "lat.by_ue", obs.UEDir{UE: ue, Dir: obs.DirUL}, sim.Duration(j)*sim.Microsecond)
		}
	}
	b.ReportMetric(float64(b.N)*n*3/b.Elapsed().Seconds(), "records/sec")
}

// labeledDisabled is the same sequence against a nil recorder: the per-packet
// cost every unlabeled run pays for the dimensional layer existing.
func labeledDisabled(b *testing.B) {
	b.ReportAllocs()
	const n, ues = 1024, 8
	var rec *obs.Recorder
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			ue := j % ues
			obs.CountIn(rec, "pkt.by_ue", obs.PktEvent{UE: ue, Dir: obs.DirUL, Event: "delivered"}, 1)
			obs.GaugeIn(rec, "slot.ue_dl_take_bytes", obs.UEKey{UE: ue}, float64(j))
			obs.ObserveIn(rec, "lat.by_ue", obs.UEDir{UE: ue, Dir: obs.DirUL}, sim.Duration(j)*sim.Microsecond)
		}
	}
	b.ReportMetric(float64(b.N)*n*3/b.Elapsed().Seconds(), "records/sec")
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
