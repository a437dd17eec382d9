package flight_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"urllcsim"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/flight"
	"urllcsim/internal/sim"
	"urllcsim/internal/sweep"
)

const deadline = 500 * time.Microsecond

// runScenario drives the reference DDDU/0.5ms/USB2 scenario with the given
// recorder attached and returns the packet results.
func runScenario(t testing.TB, seed uint64, packets int, rec *obs.Recorder) []urllcsim.PacketResult {
	t.Helper()
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern: urllcsim.PatternDDDU, SlotScale: urllcsim.Slot0p5ms,
		Radio: urllcsim.RadioUSB2, Seed: seed, Deadline: deadline, Obs: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < packets; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		sc.SendUplink(at+137*time.Microsecond, 32)
		sc.SendDownlink(at+731*time.Microsecond, 32)
	}
	rs := sc.Run(time.Duration(packets+50) * 2 * time.Millisecond)
	if len(rs) != 2*packets {
		t.Fatalf("resolved %d/%d packets", len(rs), 2*packets)
	}
	return rs
}

func newFlight(cfg flight.Config) (*obs.Recorder, *flight.Recorder) {
	rec := obs.NewRecorder()
	fr := flight.New(cfg)
	rec.SetTap(fr)
	return rec, fr
}

// TestRecorderChangesNothing is the non-negotiable of the package: attaching
// the flight recorder (and disabling span/outcome retention, the bounded-
// memory mode) changes no simulation results.
func TestRecorderChangesNothing(t *testing.T) {
	plain := runScenario(t, 3, 40, obs.NewRecorder())

	rec, fr := newFlight(flight.Config{Deadline: sim.Duration(deadline)})
	rec.SetRetention(false, false)
	tapped := runScenario(t, 3, 40, rec)

	if !reflect.DeepEqual(plain, tapped) {
		t.Fatal("packet results differ with the flight recorder attached")
	}
	if fr.Stats().Resolved != 80 {
		t.Fatalf("flight recorder saw %d outcomes, want 80", fr.Stats().Resolved)
	}
}

// TestExemplarPerMiss: every deadline miss and every loss yields exactly one
// promoted exemplar, with a non-empty exactly-ordered causal chain.
func TestExemplarPerMiss(t *testing.T) {
	rec, fr := newFlight(flight.Config{Deadline: sim.Duration(deadline)})
	rs := runScenario(t, 1, 40, rec)

	misses := 0
	for _, r := range rs {
		if !r.Delivered || r.Latency > deadline {
			misses++
		}
	}
	set := fr.Set()
	if misses == 0 {
		t.Fatal("scenario produced no deadline misses; test needs a tighter budget")
	}
	if len(set.Misses) != misses {
		t.Fatalf("%d miss exemplars for %d misses", len(set.Misses), misses)
	}
	for _, ex := range set.Misses {
		if len(ex.Chain) == 0 {
			t.Fatalf("packet %d: promoted with empty causal chain", ex.Packet)
		}
		for i := 1; i < len(ex.Chain); i++ {
			if ex.Chain[i].Time < ex.Chain[i-1].Time {
				t.Fatalf("packet %d: chain out of order at %d", ex.Packet, i)
			}
		}
	}
}

// TestDeterministicExemplars: two identical runs promote bit-identical
// exemplar sets, including the top-K worst selection.
func TestDeterministicExemplars(t *testing.T) {
	serialize := func() []byte {
		rec, fr := newFlight(flight.Config{Deadline: sim.Duration(deadline), TopK: 4})
		runScenario(t, 5, 40, rec)
		var buf bytes.Buffer
		if err := flight.WriteJSONL(&buf, fr.Set(), "det"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(serialize(), serialize()) {
		t.Fatal("exemplar sets differ across identical runs")
	}
}

// TestBoundedMemory: the recorder's retained-state high-water marks are flat
// in run length — a 10× longer run tracks no more live state than the short
// one, and both respect the configured ring bounds.
func TestBoundedMemory(t *testing.T) {
	run := func(packets int) flight.Stats {
		cfg := flight.Config{Deadline: sim.Duration(deadline), MaxTracked: 64, MaxChain: 48}
		rec, fr := newFlight(cfg)
		rec.SetRetention(false, false)
		runScenario(t, 2, packets, rec)
		return fr.Stats()
	}
	small, big := run(30), run(300)
	if big.MaxLiveTracked > 64 || big.MaxLiveEntries > 64*48 {
		t.Fatalf("ring bounds violated: %+v", big)
	}
	if big.MaxLiveTracked != small.MaxLiveTracked {
		t.Fatalf("live tracked high-water grew with run length: %d → %d",
			small.MaxLiveTracked, big.MaxLiveTracked)
	}
	// A 10× longer run may first see its deepest HARQ burst late, so the
	// chain-entry high-water can creep a little — but it must be flat in run
	// length, not linear: 10× the packets, well under 1.5× the retained state.
	if big.MaxLiveEntries > small.MaxLiveEntries*3/2 {
		t.Fatalf("live chain-entry high-water scales with run length: %d → %d",
			small.MaxLiveEntries, big.MaxLiveEntries)
	}
	if big.Resolved != 600 {
		t.Fatalf("resolved %d outcomes, want 600", big.Resolved)
	}
}

// TestRingEviction: a tiny ring evicts histories instead of growing, and
// outcomes of evicted packets still resolve (as untracked exemplars when
// promoted).
func TestRingEviction(t *testing.T) {
	rec, fr := newFlight(flight.Config{Deadline: sim.Duration(deadline), MaxTracked: 1})
	runScenario(t, 1, 30, rec)
	st := fr.Stats()
	if st.MaxLiveTracked > 1 {
		t.Fatalf("ring of 1 tracked %d packets at once", st.MaxLiveTracked)
	}
	if st.Evicted == 0 {
		t.Fatal("interleaved UL+DL run with ring=1 evicted nothing")
	}
	if st.Resolved != 60 {
		t.Fatalf("resolved %d, want 60", st.Resolved)
	}
}

// TestMergeWorkerCountInvariance reproduces the sweep flow: shard flight
// sets merged in shard order are bit-identical for any worker-pool width.
func TestMergeWorkerCountInvariance(t *testing.T) {
	const shards = 6
	merged := func(workers int) []byte {
		sets, err := sweep.Run(workers, shards, func(i int) (*flight.Set, error) {
			rec, fr := newFlight(flight.Config{
				Deadline: sim.Duration(deadline), TopK: 3, Shard: i,
			})
			runScenario(t, sweep.Seed(9, i), 10, rec)
			return fr.Set(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		set := flight.MergeSets(sim.Duration(deadline), 3, sets...)
		if err := flight.WriteJSONL(&buf, set, "sweep"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	golden := merged(1)
	for _, w := range []int{2, 4} {
		if !bytes.Equal(golden, merged(w)) {
			t.Fatalf("merged flight set differs between -parallel 1 and -parallel %d", w)
		}
	}
}

// TestMergeSetsExactTopK: the merged global top-K equals brute-force
// selection over the union of shard exemplars.
func TestMergeSetsExactTopK(t *testing.T) {
	mk := func(shard, packet int, lat sim.Duration) *flight.Exemplar {
		return &flight.Exemplar{
			Shard: shard, Packet: packet, Dir: obs.DirUL,
			Reason: flight.ReasonWorstLatency, Delivered: true, Latency: lat,
		}
	}
	s0 := &flight.Set{Worst: map[obs.Dir][]*flight.Exemplar{
		obs.DirUL: {mk(0, 1, 900), mk(0, 5, 700)},
	}}
	s1 := &flight.Set{Worst: map[obs.Dir][]*flight.Exemplar{
		obs.DirUL: {mk(1, 2, 800), mk(1, 9, 700)},
	}}
	m := flight.MergeSets(0, 3, s0, s1)
	got := m.Worst[obs.DirUL]
	if len(got) != 3 {
		t.Fatalf("kept %d, want 3", len(got))
	}
	// 900, 800, then the 700-tie broken by shard index.
	if got[0].Latency != 900 || got[1].Latency != 800 ||
		got[2].Latency != 700 || got[2].Shard != 0 {
		t.Fatalf("merge order wrong: %+v %+v %+v", got[0], got[1], got[2])
	}
}

// TestJSONLRoundTrip: exemplars survive the JSONL wire format exactly —
// chains, labels, verdicts, times to the nanosecond.
func TestJSONLRoundTrip(t *testing.T) {
	rec, fr := newFlight(flight.Config{Deadline: sim.Duration(deadline), TopK: 2})
	runScenario(t, 4, 30, rec)
	set := fr.Set()

	var buf bytes.Buffer
	if err := flight.WriteJSONL(&buf, set, "rt"); err != nil {
		t.Fatal(err)
	}
	f, err := flight.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !f.HasMeta || f.Label != "rt" || f.Deadline != sim.Duration(deadline) || f.TopK != 2 {
		t.Fatalf("meta lost: %+v", f)
	}
	want := set.Exemplars()
	if len(f.Exemplars) != len(want) {
		t.Fatalf("%d exemplars after round trip, want %d", len(f.Exemplars), len(want))
	}
	for i, ex := range f.Exemplars {
		w := *want[i]
		w.Label = "rt" // stamped on write
		if !reflect.DeepEqual(*ex, w) {
			t.Fatalf("exemplar %d not lossless:\n got %+v\nwant %+v", i, *ex, w)
		}
	}
}

// TestReadJSONLRejects: truncated records, unknown schema versions and µs
// fields outside jsonl's exact range are loud one-line errors, never
// silently empty results or garbage nanosecond counts ("latency_us":1e300
// used to read back as math.MinInt64).
func TestReadJSONLRejects(t *testing.T) {
	const fl = `{"kind":"flight","schema":"urllcsim-flight/v1","dir":"UL"`
	cases := []struct{ name, in, want string }{
		{"truncated", `{"kind":"flight","schema":"urllcsim-flight/v1","dir":"U`, "flight: line 1: unexpected end of JSON input"},
		{"unknown flight schema", `{"kind":"flight_meta","schema":"urllcsim-flight/v99"}`, "unsupported flight schema"},
		{"unknown record schema", `{"kind":"flight","schema":"urllcsim-flight/v99"}`, "unsupported flight schema"},
		{"unknown anomaly schema", `{"kind":"anomaly","schema":"urllcsim-anomaly/v99"}`, "unsupported anomaly schema"},
		{"bad dir", `{"kind":"flight","schema":"urllcsim-flight/v1","dir":"sideways"}`, `flight: line 1: unknown dir "sideways"`},
		{"meta deadline", `{"kind":"flight_meta","schema":"urllcsim-flight/v1","deadline_us":1e300}`, "line 1: deadline_us "},
		{"latency", fl + `,"latency_us":1e300}`, "line 1: latency_us "},
		{"chain time", fl + `,"chain":[{"t_us":-1e300,"type":"edge","name":"sr_sent"}]}`, "line 1: t_us "},
		{"edge ref", fl + `,"chain":[{"t_us":1,"type":"edge","name":"sr_sent","ref_us":9.3e15}]}`, "line 1: ref_us "},
		{"span dur", fl + `,"chain":[{"t_us":1,"type":"span","layer":"PHY","source":"radio","dur_us":1e19}]}`, "line 1: dur_us "},
		{"anomaly time", `{"kind":"anomaly","schema":"urllcsim-anomaly/v1","dir":"DL","t_us":1e300}`, "line 1: t_us "},
	}
	for _, c := range cases {
		_, err := flight.ReadJSONL(bytes.NewReader([]byte(c.in)))
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: want a one-line error containing %q, got %v", c.name, c.want, err)
		}
	}
	// Foreign kinds are skipped, not errors: a combined trace+flight file.
	f, err := flight.ReadJSONL(bytes.NewReader([]byte(
		`{"kind":"span","packet":0}` + "\n" + `{"kind":"meta","schema":"urllcsim-trace/v1"}` + "\n")))
	if err != nil {
		t.Fatalf("trace kinds should be skipped: %v", err)
	}
	if f.HasMeta || len(f.Exemplars) != 0 {
		t.Fatalf("unexpected content from trace-only input: %+v", f)
	}
}

// TestNarrative: HARQ NACKs collapse into one ×n clause and the verdict
// names the dominant latency source.
func TestNarrative(t *testing.T) {
	rec, fr := newFlight(flight.Config{Deadline: sim.Duration(deadline)})
	runScenario(t, 1, 40, rec)
	set := fr.Set()
	if len(set.Misses) == 0 {
		t.Fatal("no misses to narrate")
	}
	for _, ex := range set.Misses {
		n := flight.Narrative(ex, set.Deadline)
		if n == "" {
			t.Fatalf("packet %d: empty narrative", ex.Packet)
		}
		if ex.Reason == flight.ReasonDeadlineMiss && !bytes.Contains([]byte(n), []byte("budget blown in")) {
			t.Fatalf("packet %d: deadline-miss narrative lacks verdict: %q", ex.Packet, n)
		}
	}
}

// TestWatchdog: windows, thresholds and anomaly values are a pure function
// of the outcome stream.
func TestWatchdog(t *testing.T) {
	var out bytes.Buffer
	wd := flight.NewWatchdog(flight.WatchdogConfig{
		Window: 4, MaxMissRate: 0.25, MaxP99: 400 * sim.Microsecond,
		Deadline: 500 * sim.Microsecond, Out: &out,
	})
	emit := func(lat sim.Duration, delivered bool, at sim.Time) {
		wd.TapOutcome(obs.Outcome{
			Packet: 0, Dir: obs.DirUL, Delivered: delivered, Latency: lat, End: at,
		})
	}
	// Window 1: one loss in four → miss rate 0.5... (1 loss + 1 deadline
	// miss = 2/4) and p99 = max delivered latency 600µs > 400µs.
	emit(100*sim.Microsecond, true, 1000)
	emit(0, false, 2000)
	emit(600*sim.Microsecond, true, 3000) // over the 500µs deadline
	emit(200*sim.Microsecond, true, 4000)
	// Window 2: all clean → nothing fires.
	for i := 0; i < 4; i++ {
		emit(100*sim.Microsecond, true, sim.Time(5000+i))
	}
	as := wd.Anomalies()
	if len(as) != 2 {
		t.Fatalf("%d anomalies, want 2: %+v", len(as), as)
	}
	if as[0].Metric != "miss_rate" || as[0].Value != 0.5 || as[0].N != 4 || as[0].Time != 4000 {
		t.Fatalf("miss_rate anomaly = %+v", as[0])
	}
	if as[1].Metric != "p99_us" || as[1].Value != 600 || as[1].Threshold != 400 {
		t.Fatalf("p99 anomaly = %+v", as[1])
	}
	if err := wd.Err(); err != nil {
		t.Fatal(err)
	}
	// The streamed JSONL re-ingests to the same anomalies.
	f, err := flight.ReadJSONL(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Anomalies, as) {
		t.Fatalf("anomaly round trip differs:\n got %+v\nwant %+v", f.Anomalies, as)
	}
}
