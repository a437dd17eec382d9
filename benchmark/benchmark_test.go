package main

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"urllcsim/internal/cell"
	"urllcsim/internal/obs"
	"urllcsim/internal/sim"
)

// TestCellEquivalence shows that the benchmark's own construction of the two
// cells (fleet, then facade) is the documented internal/cell run, not a
// lookalike: cell.Run with the same configuration gives the same outcome.
func TestCellEquivalence(t *testing.T) {
	cases := []struct {
		w   *workload
		cfg cell.Config
	}{
		{cellDynamic, cell.Config{UEs: 500, Cycles: 4, Period: 20 * time.Millisecond, Jitter: time.Millisecond}},
		{cellGrantFree, cell.Config{UEs: 128, Cycles: 16, Period: 20 * time.Millisecond, Jitter: time.Millisecond,
			Mode: cell.ModeGrantFree, CGUnits: 12, CGBackoffSlots: 8}},
	}
	for _, c := range cases {
		for _, seed := range []uint64{1, 2} {
			c.cfg.Seed = seed
			want, err := cell.Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			o, err := c.w.exec(seed, nil, &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			got := cell.Result{Offered: o.offered, Pending: o.offered - len(o.results), Horizon: o.horizon,
				SRsSent: o.sc.SRsSent(), GrantsIssued: o.sc.GrantsIssued(), CGCollisions: o.sc.CGCollisions()}
			for _, r := range o.results {
				if !r.Delivered {
					got.Lost++
					continue
				}
				got.Delivered++
				got.WorstUL = max(got.WorstUL, r.Latency)
			}
			if got != *want {
				t.Errorf("%s seed %d: benchmark %+v, cell.Run %+v", c.w.name, seed, got, *want)
			}
		}
	}
}

// TestGoldenAndFailureAccounting runs one op per workload at seed 1: every
// digest must be the pinned golden one. A wrong golden must count the op as
// failed rather than stop the run.
func TestGoldenAndFailureAccounting(t *testing.T) {
	r := newRunner(1, io.Discard)
	for _, w := range workloads {
		if o, _ := r.do(w, nil); o == nil {
			t.Errorf("%s: op failed at seed 1", w.name)
		}
		if got := *r.tally[w.name]; got != (tally{attempted: 1}) {
			t.Errorf("%s: fail_share %d/%d, want 0/1", w.name, got.failed, got.attempted)
		}
	}

	r = newRunner(1, io.Discard)
	r.expect[cellDynamic.name] ^= 1
	if o, _ := r.do(cellDynamic, nil); o != nil {
		t.Error("op with a wrong golden digest passed")
	}
	if got := *r.tally[cellDynamic.name]; got != (tally{attempted: 1, failed: 1}) {
		t.Errorf("wrong golden: fail_share %d/%d, want 1/1", got.failed, got.attempted)
	}
}

// TestTracePartition checks that a traced op's spans account for all of its
// wall time, and that the Chrome trace parses.
func TestTracePartition(t *testing.T) {
	r := newRunner(1, io.Discard)
	tr := &tracer{threads: []string{testbedPing.name}}
	var sink eventSink
	ot, f, ok := r.tracedOp(testbedPing, 0, &sink, tr)
	if !ok {
		t.Fatal("traced op failed: mounting the sink changed the outcome")
	}
	dur := func(s span) int64 { return s.end - s.start }
	var op, run, phases, events int64
	n := 0
	for i, s := range tr.spans {
		switch {
		case s.parent == -1:
			op = dur(s)
		case s.name == "run":
			run = dur(s)
			for _, c := range tr.spans {
				if c.parent == i {
					events += dur(c)
					n++
				}
			}
			fallthrough
		case tr.spans[s.parent].parent == -1:
			phases += dur(s)
		}
	}
	if events != run || phases != op || op != ot.wall {
		t.Errorf("spans do not partition: events %d ns vs run %d ns, phases %d ns vs op %d ns (wall %d ns)",
			events, run, phases, op, ot.wall)
	}
	if uint64(n) != f.steps-1 {
		t.Errorf("%d event spans for %d fired events; want all but the last, which starts the fold", n, f.steps)
	}
	var busy int64
	for _, b := range ot.busy {
		busy += b
	}
	if ot.unattributed != 0 || busy != run {
		t.Errorf("layers hold %d of %d run ns; %d ns unattributed", busy, run, ot.unattributed)
	}
	if ot.count[layerOther] != 0 {
		t.Errorf("%d events the layer map does not name", ot.count[layerOther])
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &chrome); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	x := 0
	for _, e := range chrome.TraceEvents {
		if e.Ph == "X" {
			x++
		}
	}
	if x != len(tr.spans) {
		t.Errorf("%d X events for %d spans", x, len(tr.spans))
	}
}

// TestUnknownEventIsOther feeds the tracer a hand-made op: an event the layer
// map does not name is charged to node.other, and the last event starts the
// fold.
func TestUnknownEventIsOther(t *testing.T) {
	o := &op{mark: [mEnd + 1]int64{0, 0, 0, 10, 100, 100, 100}}
	s := &eventSink{events: []event{{"gnb.tick", 20}, {"no.such.event", 50}, {"ul.rx", 90}}}
	ot := (&tracer{}).add(0, o, s)
	if ot.busy[layerTick] != 40 || ot.busy[layerOther] != 40 || ot.count[layerOther] != 1 ||
		ot.fold != 10 || ot.phase[mRun] != 80 || ot.unattributed != 0 {
		t.Errorf("got %+v", ot)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the same
// workloads, and the same metrics with the same units and directions, each
// of which the program computes.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if i >= len(bj.Workloads) || bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json does not list %s with its reason", i, w.name)
		}
	}
	var e2e, layer []metric
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metric{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(e2e, endToEnd) || !slices.Equal(layer, perLayer) {
		t.Error("BENCHMARK.json metrics differ from the program's")
	}
	names := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.name)
		}
		return slices.Sorted(slices.Values(out))
	}
	one := []sample{{wall: 1, run: 1, cal: 1}}
	s := &stats{timed: one, paired: one, traced: []opTrace{{wall: 1, cal: 1}}}
	if got := slices.Sorted(maps.Keys(endToEndMetrics(s))); !slices.Equal(got, names(endToEnd)) {
		t.Errorf("end-to-end metrics computed: %v", got)
	}
	if got := slices.Sorted(maps.Keys(layerMetrics(cellTraced, s, s, nil))); !slices.Equal(got, names(perLayer)) {
		t.Errorf("per-layer metrics computed: %v", got)
	}
}

// TestCompare checks the -compare verdict against BENCHMARK.json's bounds.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := write("BENCHMARK.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "op_cal_p50", "unit": "cal", "better": "lower", "bound": 0.1}}})
	out := func(name string, v float64) string {
		return write(name, outFile{Seed: 1, Workloads: map[string]map[string]value{
			"cell-dynamic": {"op_cal_p50": {v, "cal"}}}})
	}
	a, near, far := out("a.json", 10), out("near.json", 10.9), out("far.json", 8.5)
	for _, c := range []struct {
		b    string
		want bool
	}{{near, true}, {far, false}} {
		ok, err := compareFiles(io.Discard, bench, a, c.b)
		if err != nil || ok != c.want {
			t.Errorf("compare %s: agree %v (%v), want %v", filepath.Base(c.b), ok, err, c.want)
		}
	}
}

// TestSinkForwards checks that the benchmark's sink passes every event on to
// the sink it displaced.
func TestSinkForwards(t *testing.T) {
	eng := sim.NewEngine()
	forwarded := 0
	eng.Sink = obs.TracerFunc(func(sim.Time, string) { forwarded++ })
	var s eventSink
	s.mount(eng)
	eng.After(1, "a", func() {})
	eng.After(2, "b", func() {})
	eng.RunAll()
	if forwarded != 2 || len(s.events) != 2 {
		t.Errorf("forwarded %d, recorded %d of 2 events", forwarded, len(s.events))
	}
}
