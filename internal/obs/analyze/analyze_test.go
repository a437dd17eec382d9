package analyze

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"urllcsim/internal/core"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/jsonl"
	"urllcsim/internal/sim"
)

// span is shorthand for building synthetic journeys.
func span(pkt int, dir obs.Dir, layer obs.Layer, step string, src core.Source, start, dur int64) obs.Span {
	return obs.Span{Packet: pkt, Dir: dir, Layer: layer, Step: step, Source: src,
		Start: sim.Time(start), Dur: sim.Duration(dur)}
}

// logOf builds a log holding vs, in order.
func logOf[T any](vs ...T) obs.Log[T] {
	var l obs.Log[T]
	for _, v := range vs {
		l.Append(v)
	}
	return l
}

// syntheticTrace builds three UL packets and one DL packet with known
// budgets:
//
//	pkt 0: contiguous UL journey, 300 µs total (100 proto + 120 proc + 80 radio), delivered
//	pkt 1: contiguous UL journey, 700 µs total (500 proto + 100 proc + 100 radio), delivered late
//	pkt 2: UL, lost after a 200 µs radio span (no delivery outcome)
//	pkt 3: DL, retransmitted (attempts 2), spans overlap, delivered in 450 µs
func syntheticTrace() *Trace {
	us := int64(1000)
	return &Trace{
		Spans: logOf(
			span(0, obs.DirUL, obs.LayerSched, "sched.wait", core.Protocol, 0, 100*us),
			span(0, obs.DirUL, obs.LayerPHY, "phy.encode", core.Processing, 100*us, 120*us),
			span(0, obs.DirUL, obs.LayerAir, "air.tx", core.Radio, 220*us, 80*us),

			span(1, obs.DirUL, obs.LayerSched, "sched.wait", core.Protocol, 1000*us, 500*us),
			span(1, obs.DirUL, obs.LayerPHY, "phy.encode", core.Processing, 1500*us, 100*us),
			span(1, obs.DirUL, obs.LayerAir, "air.tx", core.Radio, 1600*us, 100*us),

			span(2, obs.DirUL, obs.LayerAir, "air.tx", core.Radio, 2000*us, 200*us),

			span(3, obs.DirDL, obs.LayerAir, "air.tx", core.Radio, 3000*us, 300*us),
			span(3, obs.DirDL, obs.LayerAir, "air.retx", core.Radio, 3200*us, 250*us),
		),
		Outcomes: logOf(
			obs.Outcome{Packet: 0, Dir: obs.DirUL, Delivered: true, Latency: 300 * sim.Microsecond, Attempts: 1},
			obs.Outcome{Packet: 1, Dir: obs.DirUL, Delivered: true, Latency: 700 * sim.Microsecond, Attempts: 1},
			obs.Outcome{Packet: 2, Dir: obs.DirUL, Delivered: false, Latency: 0, Attempts: 4},
			obs.Outcome{Packet: 3, Dir: obs.DirDL, Delivered: true, Latency: 450 * sim.Microsecond, Attempts: 2},
		),
	}
}

func TestJourneysGrouping(t *testing.T) {
	js := Journeys(syntheticTrace())
	if len(js) != 4 {
		t.Fatalf("want 4 journeys, got %d", len(js))
	}
	j0 := js[0]
	if j0.Packet != 0 || j0.Dir != obs.DirUL || len(j0.Spans) != 3 {
		t.Fatalf("journey 0 malformed: %+v", j0)
	}
	if !j0.Contiguous {
		t.Fatal("journey 0 spans tile exactly; Contiguous must be true")
	}
	if j0.SpanSum != 300*sim.Microsecond {
		t.Fatalf("journey 0 SpanSum = %v, want 300µs", j0.SpanSum)
	}
	if !j0.BudgetExact() {
		t.Fatal("journey 0: per-source budget must sum exactly to the outcome latency")
	}
	if got := j0.BySource[core.Protocol]; got != 100*sim.Microsecond {
		t.Fatalf("journey 0 protocol budget = %v, want 100µs", got)
	}
	if got := j0.BySource[core.Processing]; got != 120*sim.Microsecond {
		t.Fatalf("journey 0 processing budget = %v, want 120µs", got)
	}
	if got := j0.BySource[core.Radio]; got != 80*sim.Microsecond {
		t.Fatalf("journey 0 radio budget = %v, want 80µs", got)
	}
	if j0.Dominant() != core.Processing {
		t.Fatalf("journey 0 dominant = %v, want processing", j0.Dominant())
	}
	if js[1].Dominant() != core.Protocol {
		t.Fatalf("journey 1 dominant = %v, want protocol", js[1].Dominant())
	}
	// Packet 3's retransmission spans overlap: SpanSum (550µs) exceeds the
	// outcome latency (450µs) and the budget is not ns-exact.
	j3 := js[3]
	if j3.SpanSum != 550*sim.Microsecond || j3.BudgetExact() {
		t.Fatalf("journey 3: SpanSum=%v exact=%v, want 550µs/false", j3.SpanSum, j3.BudgetExact())
	}
	if j3.OneWay() != 450*sim.Microsecond {
		t.Fatalf("journey 3 OneWay = %v, want the outcome latency 450µs", j3.OneWay())
	}
}

func TestRunAudit(t *testing.T) {
	a := Run(syntheticTrace(), "synthetic", 500*sim.Microsecond)
	if len(a.Dirs) != 2 || a.Dirs[0].Dir != obs.DirUL || a.Dirs[1].Dir != obs.DirDL {
		t.Fatalf("want [UL DL] dirs, got %+v", a.Dirs)
	}
	ul := a.Dirs[0]
	if ul.N != 3 || ul.Delivered != 2 || ul.Lost != 1 {
		t.Fatalf("UL accounting: N=%d delivered=%d lost=%d", ul.N, ul.Delivered, ul.Lost)
	}
	// pkt 0 met (300 ≤ 500); pkt 1 late (700); pkt 2 lost.
	if ul.DeadlineMet != 1 || ul.Missed != 2 {
		t.Fatalf("UL deadline verdicts: met=%d missed=%d, want 1/2", ul.DeadlineMet, ul.Missed)
	}
	// pkt 1's miss is protocol-dominated; pkt 2's (lost, only a radio span)
	// is radio-dominated.
	if ul.MissDominant[core.Protocol] != 1 || ul.MissDominant[core.Radio] != 1 {
		t.Fatalf("UL miss attribution: %v", ul.MissDominant)
	}
	// Per-source totals across UL: proto 600, proc 220, radio 380 µs.
	if ul.BySource[core.Protocol] != 600*sim.Microsecond ||
		ul.BySource[core.Processing] != 220*sim.Microsecond ||
		ul.BySource[core.Radio] != 380*sim.Microsecond {
		t.Fatalf("UL per-source totals wrong: %v", ul.BySource)
	}
	if ul.BudgetTotal() != 1200*sim.Microsecond {
		t.Fatalf("UL budget total = %v, want 1200µs", ul.BudgetTotal())
	}
	// Histogram holds only delivered latencies: {300, 700} µs.
	if ul.Hist.N() != 2 || ul.Hist.Max() != int64(700*sim.Microsecond) {
		t.Fatalf("UL histogram: n=%d max=%d", ul.Hist.N(), ul.Hist.Max())
	}
	// Reliability = delivered-within-deadline / offered = 1/3.
	if got := ul.Rel.Value(); got < 0.33 || got > 0.34 {
		t.Fatalf("UL reliability = %v, want 1/3", got)
	}
	// Steps appear in first-seen order with correct occurrence counts.
	var steps []string
	for _, st := range ul.Steps {
		steps = append(steps, st.Step)
	}
	want := []string{"sched.wait", "phy.encode", "air.tx"}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("UL steps = %v, want %v", steps, want)
	}
	if ul.Steps[0].N != 2 || ul.Steps[2].N != 3 {
		t.Fatalf("UL step counts: sched.wait=%d air.tx=%d, want 2/3", ul.Steps[0].N, ul.Steps[2].N)
	}
	// StartOffset of sched.wait is 0 in both journeys (first span).
	if ul.Steps[0].StartOffset.Mean() != 0 {
		t.Fatalf("sched.wait mean start offset = %v, want 0", ul.Steps[0].StartOffset.Mean())
	}

	dl := a.Dirs[1]
	if dl.N != 1 || dl.Retransmitted != 1 || dl.DeadlineMet != 1 {
		t.Fatalf("DL accounting: N=%d retx=%d met=%d", dl.N, dl.Retransmitted, dl.DeadlineMet)
	}
}

// TestJSONLRoundTripLossless writes a recorder's trace to JSONL, re-ingests
// it, and demands byte-identical state: every span and outcome equal to the
// nanosecond.
func TestJSONLRoundTripLossless(t *testing.T) {
	rec := obs.NewRecorder()
	// Awkward nanosecond values that don't align to any decimal unit.
	rec.PacketSpan(11, obs.DirUL, obs.LayerSched, "sched.wait", core.Protocol, sim.Time(123457), sim.Duration(86417))
	rec.PacketSpan(11, obs.DirUL, obs.LayerPHY, "phy.encode", core.Processing, sim.Time(209874), sim.Duration(33331))
	rec.PacketSpan(12, obs.DirDL, obs.LayerAir, "air.tx", core.Radio, sim.Time(999999937), sim.Duration(142857))
	rec.Outcome(obs.Outcome{Packet: 11, Dir: obs.DirUL, Delivered: true, Latency: sim.Duration(119748), Attempts: 1})
	rec.Outcome(obs.Outcome{Packet: 12, Dir: obs.DirDL, Delivered: false, Latency: 0, Attempts: 3})

	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	direct := FromRecorder(rec)
	if got, want := slices.Collect(tr.Spans.All()), slices.Collect(direct.Spans.All()); !slices.Equal(got, want) {
		t.Fatalf("spans differ after round trip:\n got %+v\nwant %+v", got, want)
	}
	if got, want := slices.Collect(tr.Outcomes.All()), slices.Collect(direct.Outcomes.All()); !slices.Equal(got, want) {
		t.Fatalf("outcomes differ after round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	cases := []struct{ name, line string }{
		{"bad json", `{"kind":"span",`},
		{"bad dir", `{"kind":"span","dir":"sideways","layer":"PHY","source":"radio"}`},
		{"bad layer", `{"kind":"span","dir":"UL","layer":"L8","source":"radio"}`},
		{"bad source", `{"kind":"span","dir":"UL","layer":"PHY","source":"gravity"}`},
		{"bad outcome dir", `{"kind":"outcome","dir":"sideways"}`},
	}
	for _, tc := range cases {
		if _, err := ReadJSONL(strings.NewReader(tc.line + "\n")); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	// Unknown kinds are skipped, blank lines ignored.
	tr, err := ReadJSONL(strings.NewReader("\n" + `{"kind":"hologram","x":1}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Spans.Len()+tr.Outcomes.Len() != 0 {
		t.Fatal("unknown kind must be skipped")
	}
}

// TestReadJSONLRejectsOutOfRangeMicros: a µs field outside jsonl's exact
// range is a one-line error naming the line and the field, not a silent
// garbage nanosecond count (1e300 µs used to convert to math.MinInt64).
func TestReadJSONLRejectsOutOfRangeMicros(t *testing.T) {
	meta := `{"kind":"meta","schema":"` + obs.TraceSchema + `"}` + "\n"
	span := `{"kind":"span","packet":1,"dir":"UL","layer":"PHY","step":"s","source":"radio","start_us":%s,"dur_us":%s}`
	outcome := `{"kind":"outcome","packet":1,"dir":"UL","delivered":true,"latency_us":%s,"attempts":1,"end_us":%s}`
	const bound = "4398046511104" // jsonl.MaxExactNs in µs: the first value outside
	for _, c := range []struct{ line, field string }{
		{fmt.Sprintf(span, "1e300", "1"), "start_us"},
		{fmt.Sprintf(span, "1", "-1e300"), "dur_us"},
		{fmt.Sprintf(span, bound, "1"), "start_us"},
		{fmt.Sprintf(outcome, "1e19", "1"), "latency_us"},
		{fmt.Sprintf(outcome, "1", "-"+bound), "end_us"},
	} {
		_, err := ReadJSONL(strings.NewReader(meta + c.line + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2: "+c.field+" ") || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: want a one-line \"line 2: %s …\" error, got %v", c.line, c.field, err)
		}
	}
	// The last value inside the range still reads back exactly.
	tr, err := ReadJSONL(strings.NewReader(meta + fmt.Sprintf(span, "4398046511103.999", "0") + "\n"))
	if err != nil || tr.Spans.Len() != 1 || slices.Collect(tr.Spans.All())[0].Start != sim.Time(jsonl.MaxExactNs-1) {
		t.Fatalf("in-range start: %v, %+v", err, tr)
	}
}

// FuzzReadTraceJSONL: the trace reader never panics, and any trace it
// accepts re-encodes through obs.WriteJSONL into a file that reads back to
// the same spans and outcomes. Seeded with the obs trace goldens.
func FuzzReadTraceJSONL(f *testing.F) {
	for _, name := range []string{"trace.jsonl.golden", "trace_sampled.jsonl.golden"} {
		data, err := os.ReadFile(filepath.Join("..", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		lines := bytes.SplitAfter(data, []byte("\n"))
		for _, i := range []int{1, len(lines) / 2, len(lines) - 2} {
			f.Add(bytes.Join([][]byte{lines[0], lines[i]}, nil))
		}
	}
	f.Add([]byte(`{"kind":"span","dir":"UL","layer":"PHY","source":"radio","start_us":1e300}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("multi-line error: %q", err)
			}
			return
		}
		rec := obs.NewRecorder()
		for s := range tr.Spans.All() {
			rec.PacketSpan(s.Packet, s.Dir, s.Layer, s.Step, s.Source, s.Start, s.Dur)
		}
		for o := range tr.Outcomes.All() {
			rec.Outcome(o)
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, rec); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not read back: %v\n%s", err, buf.Bytes())
		}
		if !slices.Equal(slices.Collect(tr.Spans.All()), slices.Collect(again.Spans.All())) ||
			!slices.Equal(slices.Collect(tr.Outcomes.All()), slices.Collect(again.Outcomes.All())) {
			t.Fatalf("re-encoded trace reads back differently:\n%s", buf.Bytes())
		}
	})
}

func TestUsToNsExact(t *testing.T) {
	// The exporter writes float64(ns)/1000; the reader must invert exactly.
	vals := []int64{0, 1, 3, 999, 1000, 142857, 123456789, 999999999937, 1<<50 + 7}
	for _, ns := range vals {
		us := float64(ns) / 1000
		if got, err := jsonl.NanosFromMicros("t_us", us); err != nil || got != ns {
			t.Fatalf("NanosFromMicros(%v) = %d, %v; want %d", us, got, err, ns)
		}
	}
}

func TestReports(t *testing.T) {
	a := Run(syntheticTrace(), "synthetic", 500*sim.Microsecond)
	audits := []*Audit{a}

	var md bytes.Buffer
	if err := WriteMarkdown(&md, audits); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# URLLC latency-budget report",
		"## synthetic",
		"One-way deadline: 500.00 µs",
		"### Feasibility (Fig. 4-style)",
		"### Budget by latency source (Fig. 3 taxonomy)",
		"### Temporal breakdown (Fig. 3)",
		"| UL |", "| DL |",
		"sched.wait", "phy.encode", "air.tx",
	} {
		if !strings.Contains(md.String(), want) {
			t.Fatalf("markdown missing %q:\n%s", want, md.String())
		}
	}

	var fcsv bytes.Buffer
	if err := WriteFeasibilityCSV(&fcsv, audits); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(fcsv.String()), "\n")
	if len(lines) != 3 { // header + UL + DL
		t.Fatalf("feasibility CSV: want 3 lines, got %d:\n%s", len(lines), fcsv.String())
	}
	cols := strings.Count(lines[0], ",")
	for i, l := range lines {
		if strings.Count(l, ",") != cols {
			t.Fatalf("feasibility CSV line %d has ragged columns:\n%s", i, fcsv.String())
		}
	}
	if !strings.HasPrefix(lines[1], "synthetic,UL,3,2,1,") {
		t.Fatalf("feasibility UL row wrong: %s", lines[1])
	}

	var bcsv bytes.Buffer
	if err := WriteBreakdownCSV(&bcsv, audits); err != nil {
		t.Fatal(err)
	}
	b := bcsv.String()
	// UL: 3 step rows + 3 source rows; DL: 2 step rows + 3 source rows.
	if got := strings.Count(b, ",step,") - 1; got != 5 { // header names a step column too
		t.Fatalf("breakdown CSV: want 5 step rows, got %d:\n%s", got, b)
	}
	if got := strings.Count(b, ",source,") - 1; got != 6 { // header again
		t.Fatalf("breakdown CSV: want 6 source rows, got %d:\n%s", got, b)
	}
	// Per-source totals in the CSV are ns-exact at three decimals: UL radio
	// total is 380 µs.
	if !strings.Contains(b, "synthetic,UL,source,,,radio,3,,") || !strings.Contains(b, ",380.000,") {
		t.Fatalf("breakdown CSV missing exact UL radio total:\n%s", b)
	}
}

func TestCSVFieldQuoting(t *testing.T) {
	if got := csvField("plain"); got != "plain" {
		t.Fatalf("csvField(plain) = %q", got)
	}
	if got := csvField(`a,"b"`); got != `"a,""b"""` {
		t.Fatalf("csvField quoting wrong: %q", got)
	}
}

func TestMergeTraces(t *testing.T) {
	tr1 := &Trace{
		Spans: logOf(
			span(0, obs.DirUL, obs.LayerStack, "a", core.Processing, 0, 10),
			span(2, obs.DirUL, obs.LayerStack, "a", core.Processing, 5, 10),
		),
		Outcomes: logOf(
			obs.Outcome{Packet: 0, Dir: obs.DirUL, Delivered: true, Latency: 10},
			obs.Outcome{Packet: 2, Dir: obs.DirUL, Delivered: true, Latency: 10},
		),
	}
	tr2 := &Trace{
		Spans: logOf(
			span(0, obs.DirDL, obs.LayerStack, "b", core.Radio, 0, 20),
			span(1, obs.DirDL, obs.LayerStack, "b", core.Radio, 3, 20),
		),
		Outcomes: logOf(obs.Outcome{Packet: 0, Dir: obs.DirDL, Delivered: true, Latency: 20}),
	}
	m := MergeTraces(tr1, nil, tr2)
	// Shard 1 used ids 0 and 2, so shard 2's ids start at 3.
	var got []int
	for s := range m.Spans.All() {
		got = append(got, s.Packet)
	}
	if !reflect.DeepEqual(got, []int{0, 2, 3, 4}) {
		t.Fatalf("span ids renumbered to %v, want [0 2 3 4]", got)
	}
	if o := slices.Collect(m.Outcomes.All()); o[2].Packet != 3 {
		t.Fatalf("outcome ids must renumber consistently with spans: %d", o[2].Packet)
	}
	// Journeys from different shards never collide: 3 distinct journeys.
	if js := Journeys(m); len(js) != 4 {
		t.Fatalf("merged trace groups into %d journeys, want 4", len(js))
	}
	// Source traces untouched.
	if slices.Collect(tr1.Spans.All())[1].Packet != 2 || slices.Collect(tr2.Spans.All())[0].Packet != 0 {
		t.Fatal("merge mutated a source trace")
	}
}
