package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"urllcsim"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/sim"
	wl "urllcsim/internal/workload"
)

// Testbed traffic (§7): one 32 B UL packet and one 32 B DL packet per 2 ms,
// at fixed offsets inside the period so neither direction lands on a slot
// boundary.
const (
	payloadBytes = 32
	pairEvery    = 2 * time.Millisecond
	ulAt         = 137 * time.Microsecond
	dlAt         = 731 * time.Microsecond
)

// cellFleetSeed is the salt internal/cell mixes into the run seed for its
// UL fleet; the benchmark uses the same one so its cell is cell.Run's cell
// (TestCellEquivalence pins this).
const cellFleetSeed = 0xCE11F1EE7

// A workload is one fixed set of simulator inputs. Every op rebuilds it from
// the seed alone, so the ops of one run are independent and must produce
// identical outcomes.
type workload struct {
	name, why string

	// scenario is the facade configuration; Seed and Obs are set per op.
	scenario urllcsim.ScenarioConfig

	// pairs is the testbed traffic: this many UL/DL pairs, one per
	// pairEvery.
	pairs int

	// machines × cycles is the cell traffic: a phase-staggered periodic
	// fleet (workload.Fleet), UL only.
	machines, cycles int
	period, jitter   time.Duration

	// drain is how long the engine runs past the last arrival.
	drain time.Duration

	// recorded adds a KPI-grade recorder and, after the run, the KPI pass
	// and the JSONL, slot and KPI exports.
	recorded bool
}

var (
	testbedPing = &workload{
		name: "testbed-ping",
		why:  "single-UE DDDU testbed with UL and DL: the per-packet stack path (codecs, SR/grant, DL) carries the load",
		scenario: urllcsim.ScenarioConfig{
			Pattern: urllcsim.PatternDDDU, SlotScale: urllcsim.Slot0p5ms, Radio: urllcsim.RadioUSB2,
		},
		pairs: 2500,
		drain: 100 * time.Millisecond,
	}
	cellDynamic = &workload{
		name: "cell-dynamic",
		why:  "500-UE dynamic-grant cell: scheduler rounds of up to 500 SRs and per-tick bookkeeping carry the load",
		scenario: urllcsim.ScenarioConfig{
			Pattern: urllcsim.PatternDU, SlotScale: urllcsim.Slot0p5ms, RoundRobin: true,
		},
		machines: 500, cycles: 4, period: 20 * time.Millisecond, jitter: time.Millisecond,
		drain: 200 * time.Millisecond,
	}
	cellGrantFree = &workload{
		name: "cell-grantfree",
		why:  "128-UE grant-free cell on 12 shared units: bypasses SR/grant, stresses collisions, backoff and HARQ",
		scenario: urllcsim.ScenarioConfig{
			Pattern: urllcsim.PatternDU, SlotScale: urllcsim.Slot0p5ms,
			GrantFree: true, CGUnits: 12, CGBackoffSlots: 8,
		},
		machines: 128, cycles: 16, period: 20 * time.Millisecond, jitter: time.Millisecond,
		drain: 200 * time.Millisecond,
	}
	// cellTraced is cellDynamic's inputs with observability on; the
	// difference between the two is the price of recording.
	cellTraced = &workload{
		name: "cell-traced",
		why:  "cell-dynamic with spans, per-UE families, slot ledger, deadline audit, KPI pass and exports on",
		scenario: urllcsim.ScenarioConfig{
			Pattern: urllcsim.PatternDU, SlotScale: urllcsim.Slot0p5ms, RoundRobin: true,
			Deadline: 500 * time.Microsecond,
		},
		machines: 500, cycles: 4, period: 20 * time.Millisecond, jitter: time.Millisecond,
		drain:    200 * time.Millisecond,
		recorded: true,
	}

	// workloads is the round-robin order of an interleaved run.
	workloads = []*workload{testbedPing, cellDynamic, cellGrantFree, cellTraced}
)

// golden holds each workload's outcome digest at seed 1. A change that
// moves one of them changed simulated behaviour, which the repository's
// outputs forbid.
var golden = map[string]uint64{
	"testbed-ping":   0x31de298dc682854b,
	"cell-dynamic":   0xabecc08e36058036,
	"cell-grantfree": 0x7d75091a685d3898,
	"cell-traced":    0x5ed75592817a3d6e,
}

// Op phases, in order; op.mark[p] is when phase p began and op.mark[mEnd]
// when the op ended. A phase a workload does not have is empty.
const (
	mBuild  = iota // urllcsim.NewScenario (and the recorder)
	mGen           // workload.Fleet arrivals
	mOffer         // Send*From calls
	mRun           // Scenario.Run: the engine, then the results fold
	mKPI           // analyze.ComputeKPI
	mExport        // JSONL, slot and KPI writers
	mEnd
)

var phaseNames = [mEnd]string{"setup.build", "setup.gen", "setup.offer", "run", "obs.kpi", "obs.export"}

// op is one execution of a workload, kept for the checks and the traced
// pass.
type op struct {
	mark    [mEnd + 1]int64 // bench clock, ns
	sc      *urllcsim.Scenario
	rec     *obs.Recorder
	results []urllcsim.PacketResult
	offered int
	horizon time.Duration
	exports []byte // cell-traced's export bytes; aliases the caller's buffer
}

func (o *op) wall() int64  { return o.mark[mEnd] - o.mark[mBuild] }
func (o *op) setup() int64 { return o.mark[mRun] - o.mark[mBuild] }
func (o *op) run() int64   { return o.mark[mKPI] - o.mark[mRun] }

// exec runs one op. sink, when non-nil, is mounted on the engine before the
// traffic is offered; out receives the exports.
func (w *workload) exec(seed uint64, sink *eventSink, out *bytes.Buffer) (*op, error) {
	o := &op{}
	o.mark[mBuild] = clock()
	cfg := w.scenario
	cfg.Seed = seed
	if w.recorded {
		o.rec = obs.NewRecorder()
		o.rec.EnableSlotLedger()
		cfg.Obs = o.rec
	}
	sc, err := urllcsim.NewScenario(cfg)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	o.sc = sc
	if sink != nil {
		sink.mount(sc.Engine())
	}

	o.mark[mGen] = clock()
	var fleet []wl.MachinePacket
	if w.machines > 0 {
		f := wl.NewFleet(w.machines, sim.Duration(w.period), sim.Duration(w.jitter),
			payloadBytes, sim.NewRNG(seed^cellFleetSeed))
		fleet = wl.TakeFleet(f, w.machines*w.cycles)
		o.mark[mOffer] = clock()
	} else {
		o.mark[mOffer] = o.mark[mGen]
	}

	var last time.Duration
	for i := 0; i < w.pairs; i++ {
		base := time.Duration(i) * pairEvery
		sc.SendUplink(base+ulAt, payloadBytes)
		sc.SendDownlink(base+dlAt, payloadBytes)
		last = base + dlAt
	}
	for _, p := range fleet {
		sc.SendUplinkFrom(p.UE, time.Duration(p.Arrival), p.Bytes)
		last = max(last, time.Duration(p.Arrival))
	}
	o.offered = 2*w.pairs + len(fleet)
	o.horizon = last + w.drain

	o.mark[mRun] = clock()
	o.results = sc.Run(o.horizon)
	o.mark[mKPI] = clock()
	if !w.recorded {
		o.mark[mExport], o.mark[mEnd] = o.mark[mKPI], o.mark[mKPI]
		return o, nil
	}
	rep := analyze.ComputeKPI(analyze.FromRecorder(o.rec), w.name)
	o.mark[mExport] = clock()
	out.Reset()
	if err := obs.WriteJSONL(out, o.rec); err != nil {
		return nil, fmt.Errorf("JSONL export: %w", err)
	}
	if err := obs.WriteSlotsJSONL(out, o.rec.Slots(), w.name); err != nil {
		return nil, fmt.Errorf("slot export: %w", err)
	}
	if err := analyze.WriteKPIJSONL(out, rep); err != nil {
		return nil, fmt.Errorf("KPI export: %w", err)
	}
	o.mark[mEnd] = clock()
	o.exports = out.Bytes()
	return o, nil
}

// digest is the FNV-64a hash of everything the op simulated: every packet's
// fate, the scheduler and radio counters, and the export bytes.
func (o *op) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	flag := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	for _, r := range o.results {
		put(int64(r.ID))
		put(flag(r.Uplink))
		put(flag(r.Delivered))
		put(int64(r.Latency))
		put(int64(r.Attempts))
	}
	for _, c := range []int{o.sc.SRsSent(), o.sc.GrantsIssued(), o.sc.CGCollisions(),
		o.sc.RadioMisses(), o.sc.PHYLosses()} {
		put(int64(c))
	}
	h.Write(o.exports)
	return h.Sum64()
}
