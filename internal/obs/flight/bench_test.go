package flight_test

import (
	"runtime"
	"testing"
	"time"

	"urllcsim"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/flight"
	"urllcsim/internal/sim"
)

// flightScenario returns the DDDU/0.5ms/USB2 scenario with a retention-free
// recorder and a flight-recorder tap attached, the configuration `urllcsim
// -flight-out` runs, and the tap.
func flightScenario(tb testing.TB) (*urllcsim.Scenario, *flight.Recorder) {
	rec := obs.NewRecorder()
	rec.SetRetention(false, false)
	fr := flight.New(flight.Config{Deadline: 500 * sim.Microsecond, TopK: flight.DefaultTopK})
	rec.SetTap(fr)
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern: urllcsim.PatternDDDU, SlotScale: urllcsim.Slot0p5ms,
		Radio: urllcsim.RadioUSB2, Seed: 1, Obs: rec,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sc, fr
}

// sendDownlinks is the FlightRecorderOverhead body: n full-stack DL packets
// through sc, run to completion, every one resolved by the scenario and by
// the flight recorder.
func sendDownlinks(tb testing.TB, sc *urllcsim.Scenario, fr *flight.Recorder, n int) {
	for i := 0; i < n; i++ {
		sc.SendDownlink(time.Duration(i)*2*time.Millisecond, 32)
	}
	if rs := sc.Run(time.Duration(n+50) * 2 * time.Millisecond); len(rs) != n {
		tb.Fatalf("resolved %d/%d", len(rs), n)
	}
	if st := fr.Stats(); st.Resolved != n {
		tb.Fatalf("flight recorder resolved %d/%d", st.Resolved, n)
	}
}

// BenchmarkFlightRecorderOverhead times one DL packet per op with the flight
// recorder tapped in.
func BenchmarkFlightRecorderOverhead(b *testing.B) {
	b.ReportAllocs()
	sc, fr := flightScenario(b)
	b.ResetTimer()
	sendDownlinks(b, sc, fr, b.N)
	b.ReportMetric(float64(sc.Engine().Steps())/b.Elapsed().Seconds(), "events/sec")
}

// TestFlightRecorderOverheadAllocs pins FlightRecorderOverhead's allocations
// per DL packet over a fixed 500-packet run, scenario construction
// excluded; a rise fails. Measured: 9.452–9.459 per packet (the benchmark,
// whose run fixed costs spread over more packets, reports 9); the bound
// leaves room for map overflow buckets that depend on the hash seed, not
// for one allocation more per 20 packets.
func TestFlightRecorderOverheadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race adds allocations of its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, runs = 500, 4
	var mallocs uint64
	for i := 0; i <= runs; i++ {
		sc, fr := flightScenario(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sendDownlinks(t, sc, fr, n)
		runtime.ReadMemStats(&after)
		if i > 0 { // the first run warms the runtime
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	perPkt := float64(mallocs) / (runs * n)
	t.Logf("%.4f allocs per DL packet", perPkt)
	if perPkt > 9.5 {
		t.Fatalf("FlightRecorderOverhead: %.4f allocs per DL packet, want ≤ 9.5", perPkt)
	}
}
