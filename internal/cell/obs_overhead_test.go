package cell

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"urllcsim/internal/obs"
)

// cellOverheadRun is one 500-machine, 2-cycle cell through the real
// dynamic-grant scheduler — the C2 workload, halved so the interleaved
// measurement below finishes quickly.
func cellOverheadRun(t testing.TB, rec *obs.Recorder) {
	res, err := Run(Config{UEs: 500, Cycles: 2, Seed: 7, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pending != 0 || res.Offered != 1000 {
		t.Fatalf("cell run degenerate: %+v", *res)
	}
}

// cellOverheadPackets is the packets one cellOverheadRun offers.
const cellOverheadPackets = 1000

// cellRunAllocs returns the fewest mallocs and bytes one cellOverheadRun
// allocated over runs runs, each against rec() after a warm-up run. Noise
// (a collection refilling a pool, a map drawing a seed that grows it once
// more) only ever adds allocations, so the fewest is the run's own cost.
func cellRunAllocs(t *testing.T, runs int, rec func() *obs.Recorder) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cellOverheadRun(t, rec())
	mallocs, bytes = math.MaxUint64, math.MaxUint64
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cellOverheadRun(t, rec())
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return mallocs, bytes
}

// TestCellObserverTax pins the observer tax at cell scale — a 500-UE
// scheduler run of 1,000 packets rather than the single-UE scenario of
// TestTracingOverheadInterleaved — by counts, which are exact where wall
// time is not:
//   - the records each meter category handles, exactly: a new record per
//     packet, slot or metric update changes them;
//   - the allocations a warmed, fully traced recorder (spans, per-UE
//     labeled metrics, slot ledger) adds per packet over the untraced run.
//
// Disabled, fully traced and 1/16-sampled runs are also timed interleaved
// round-robin; their medians go to the log (EXPERIMENTS.md P2) and are not
// asserted.
func TestCellObserverTax(t *testing.T) {
	metered := obs.NewRecorder()
	metered.EnableSlotLedger()
	metered.EnableMeter()
	cellOverheadRun(t, metered)
	got := map[string]int64{}
	for _, c := range metered.MeterReport().Categories {
		got[c.Category] = c.Records
	}
	want := map[string]int64{"span": 11_000, "outcome": 1_000, "metric": 20_600, "snapshot": 600}
	for cat, n := range want {
		if got[cat] != n {
			t.Errorf("meter category %s handled %d records, want %d", cat, got[cat], n)
		}
	}

	recE := obs.NewRecorder()
	recE.EnableSlotLedger()
	recS := obs.NewRecorder()
	recS.EnableSlotLedger()
	recS.SetSampling(1.0/16, 7)
	if !raceEnabled {
		const runs = 8
		dA, dB := cellRunAllocs(t, runs, func() *obs.Recorder { return nil })
		eA, eB := cellRunAllocs(t, runs, func() *obs.Recorder { recE.Reset(); return recE })
		allocs := (float64(eA) - float64(dA)) / cellOverheadPackets
		bytes := (float64(eB) - float64(dB)) / cellOverheadPackets
		t.Logf("traced minus untraced: %.3f allocs/pkt, %.3f B/pkt", allocs, bytes)
		// Measured: 0.010 allocs/pkt and 1.768 B/pkt, the same in 60 runs
		// alone and 8 after the package's other tests (0.115 and 43.624
		// before the slot ledger kept its per-UE takes in recycled blocks);
		// the warmed recorder's buckets, logs, takes and rows are recycled,
		// so this is what tracing still allocates per run. A map's overflow
		// buckets depend on its hash seed, so the bounds allow 3 allocations
		// and 876 B per run more; one allocation more per observed record
		// is 33 per packet.
		const allocsBound, bytesBound = 0.013, 2.644
		if allocs > allocsBound || bytes > bytesBound {
			t.Errorf("tracing adds %.3f allocs/pkt and %.3f B/pkt, want ≤ %.3f and ≤ %.3f",
				allocs, bytes, allocsBound, bytesBound)
		}
	}

	if testing.Short() {
		return
	}
	cellOverheadRun(t, recE) // warm to steady state: later cycles recycle slabs
	cellOverheadRun(t, recS)
	rounds := 15
	if testing.Verbose() {
		rounds = 60
	}
	var dT, eT, sT []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		cellOverheadRun(t, nil)
		t1 := time.Now()
		recE.Reset()
		cellOverheadRun(t, recE)
		t2 := time.Now()
		recS.Reset()
		cellOverheadRun(t, recS)
		t3 := time.Now()
		dT = append(dT, t1.Sub(t0).Seconds())
		eT = append(eT, t2.Sub(t1).Seconds())
		sT = append(sT, t3.Sub(t2).Seconds())
	}
	med := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	d, e, s := med(dT), med(eT), med(sT)
	t.Logf("500-UE cell median: disabled %.2fms, full tracing %.2fms (+%.1f%%), sampled 1/16 %.2fms (+%.1f%%)",
		d*1e3, e*1e3, (e/d-1)*100, s*1e3, (s/d-1)*100)
}
