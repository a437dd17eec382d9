package urllcsim_test

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"urllcsim"
	"urllcsim/internal/obs"
)

// overheadRun is one fixed full-stack scenario (64 packets, DDDU/0.5ms/USB2)
// driven against the given recorder; nil means observability disabled.
func overheadRun(rec *obs.Recorder) error {
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern: urllcsim.PatternDDDU, SlotScale: urllcsim.Slot0p5ms, Radio: urllcsim.RadioUSB2,
		Seed: 1, Obs: rec,
	})
	if err != nil {
		return err
	}
	const packets = 32
	for i := 0; i < packets; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		sc.SendUplink(at+137*time.Microsecond, 32)
		sc.SendDownlink(at+731*time.Microsecond, 32)
	}
	if rs := sc.Run((packets + 50) * 2 * time.Millisecond); len(rs) != 2*packets {
		return fmt.Errorf("resolved %d results, want %d", len(rs), 2*packets)
	}
	return nil
}

// overheadPackets is the packets one overheadRun offers.
const overheadPackets = 64

// runAllocs returns the fewest mallocs and bytes one overheadRun allocated
// over runs runs, each against rec() after a warm-up run. Noise (a
// collection refilling a pool, a map drawing a seed that grows it once
// more) only ever adds allocations, so the fewest is the run's own cost.
func runAllocs(t *testing.T, runs int, rec func() *obs.Recorder) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := overheadRun(rec()); err != nil {
		t.Fatal(err)
	}
	mallocs, bytes = math.MaxUint64, math.MaxUint64
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := overheadRun(rec()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return mallocs, bytes
}

// TestTracingOverheadInterleaved pins the observer tax of the single-UE
// full-stack scenario by counts, which are exact where wall time is not:
//   - the records each meter category handles, exactly, for full tracing
//     and for 1/16 sampling, which meters the same records and retains a
//     fixed subset of the spans;
//   - the allocations a warmed recorder adds per packet over the untraced
//     run.
//
// Disabled, enabled and sampled runs are also timed interleaved
// round-robin, so clock drift, thermal state and GC pressure hit all three
// arms equally; their medians go to the log (the README overhead table)
// and are not asserted.
func TestTracingOverheadInterleaved(t *testing.T) {
	want := map[string]int64{"span": 616, "outcome": 64, "metric": 2_033, "snapshot": 329}
	for _, c := range []struct {
		rate  float64
		spans int
	}{{1, 616}, {1.0 / 16, 27}} {
		rec := obs.NewRecorder()
		rec.SetSampling(c.rate, 1)
		rec.EnableMeter()
		if err := overheadRun(rec); err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		for _, st := range rec.MeterReport().Categories {
			got[st.Category] = st.Records
		}
		for cat, n := range want {
			if got[cat] != n {
				t.Errorf("rate %g: meter category %s handled %d records, want %d", c.rate, cat, got[cat], n)
			}
		}
		if n := rec.Spans().Len(); n != c.spans {
			t.Errorf("rate %g: %d spans retained, want %d", c.rate, n, c.spans)
		}
	}

	recE := obs.NewRecorder()
	recS := obs.NewRecorder()
	recS.SetSampling(1.0/16, 1)
	if !raceEnabled {
		const runs = 8
		dA, dB := runAllocs(t, runs, func() *obs.Recorder { return nil })
		eA, eB := runAllocs(t, runs, func() *obs.Recorder { recE.Reset(); return recE })
		allocs := (float64(eA) - float64(dA)) / overheadPackets
		bytes := (float64(eB) - float64(dB)) / overheadPackets
		t.Logf("traced minus untraced: %.3f allocs/pkt, %.3f B/pkt", allocs, bytes)
		// Measured: 0 and 0, in 40 runs alone and after the package's other
		// tests: a warmed recorder recycles every bucket, log and row. A
		// map's overflow buckets depend on its hash seed, so the bounds
		// allow 1 allocation and 128 B per run; one allocation more per
		// observed record is 47 per packet.
		const allocsBound, bytesBound = 1.0 / overheadPackets, 128.0 / overheadPackets
		if allocs > allocsBound || bytes > bytesBound {
			t.Errorf("tracing adds %.3f allocs/pkt and %.3f B/pkt, want ≤ %.3f and ≤ %.3f",
				allocs, bytes, allocsBound, bytesBound)
		}
	}

	if testing.Short() {
		return
	}
	// Warm both recorders to steady state so the loop measures recycled
	// slabs, not first-fill growth.
	for _, rec := range []*obs.Recorder{recE, recS} {
		if err := overheadRun(rec); err != nil {
			t.Fatal(err)
		}
	}
	rounds := 120
	if testing.Verbose() {
		rounds = 400
	}
	var dT, eT, sT []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := overheadRun(nil); err != nil {
			t.Fatal(err)
		}
		t1 := time.Now()
		recE.Reset()
		if err := overheadRun(recE); err != nil {
			t.Fatal(err)
		}
		t2 := time.Now()
		recS.Reset()
		if err := overheadRun(recS); err != nil {
			t.Fatal(err)
		}
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
	t.Logf("median per run: disabled %.0fµs, enabled %.0fµs (+%.1f%%), sampled 1/16 %.0fµs (+%.1f%%)",
		d*1e6, e*1e6, (e/d-1)*100, s*1e6, (s/d-1)*100)
}
