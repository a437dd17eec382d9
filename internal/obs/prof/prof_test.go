package prof

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"urllcsim/internal/obs"
	"urllcsim/internal/sim"
)

// toyRun schedules a small event mix on a fresh engine and runs it under a
// profiler: two event types plus a nested reschedule so the queue depth
// moves.
func toyRun(t testing.TB) (*sim.Engine, *Report) {
	t.Helper()
	eng := sim.NewEngine()
	p := Attach(eng)
	for i := 0; i < 10; i++ {
		eng.Schedule(sim.Time(i*1000), "tick", sim.Func(func() {}))
	}
	eng.Schedule(sim.Time(2500), "spawn", sim.Func(func() {
		eng.After(sim.Microsecond, "child", func() {})
	}))
	eng.RunAll()
	return eng, p.Finish()
}

func TestReportPartitionAndCounts(t *testing.T) {
	eng, r := toyRun(t)
	if r.Events != 12 { // 10 ticks + spawn + child
		t.Fatalf("Events = %d, want 12", r.Events)
	}
	if r.Events != eng.Steps() {
		t.Fatalf("Events %d != engine Steps %d", r.Events, eng.Steps())
	}
	var sum int64
	var count uint64
	for _, s := range r.Types {
		sum += s.WallNs
		count += s.Count
	}
	if sum != r.AttributedNs {
		t.Fatalf("per-type wall sums to %d ns, AttributedNs is %d", sum, r.AttributedNs)
	}
	if count != r.Events {
		t.Fatalf("per-type counts sum to %d, Events is %d", count, r.Events)
	}
	if r.AttributedNs > r.WallNs {
		t.Fatalf("AttributedNs %d exceeds total WallNs %d", r.AttributedNs, r.WallNs)
	}
	if r.AttributedNs <= 0 {
		t.Fatal("no wall time attributed")
	}
	byKey := map[string]EventStat{}
	for _, s := range r.Types {
		byKey[s.Key] = s
	}
	if byKey["tick"].Count != 10 || byKey["spawn"].Count != 1 || byKey["child"].Count != 1 {
		t.Fatalf("per-type counts wrong: %+v", byKey)
	}
}

func TestReportHeapStats(t *testing.T) {
	_, r := toyRun(t)
	if r.Heap.Pushes != 12 { // 10 ticks + spawn + child
		t.Fatalf("Heap.Pushes = %d, want 12", r.Heap.Pushes)
	}
	if r.Heap.Pops != 12 { // every pop fires
		t.Fatalf("Heap.Pops = %d, want 12", r.Heap.Pops)
	}
	if r.Heap.Cancels != 0 { // the engine has no cancellation
		t.Fatalf("Heap.Cancels = %d, want 0", r.Heap.Cancels)
	}
	if r.Heap.Pops != r.Events {
		t.Fatalf("Heap.Pops = %d, profiled events = %d; pops must equal fired events", r.Heap.Pops, r.Events)
	}
	if r.Heap.MaxDepth < 1 || r.Heap.MeanDepth <= 0 {
		t.Fatalf("queue depth stats missing: max %d mean %f", r.Heap.MaxDepth, r.Heap.MeanDepth)
	}
	if r.SimNs != 9000 { // first fired event at 0, last tick at 9 µs
		t.Fatalf("SimNs = %d, want 9000", r.SimNs)
	}
}

func TestReportSharesSortedAndNormalised(t *testing.T) {
	_, r := toyRun(t)
	var total float64
	for i, s := range r.Types {
		total += s.Share
		if i > 0 && s.WallNs > r.Types[i-1].WallNs {
			t.Fatalf("types not sorted by wall share: %v", r.Types)
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %f, want 1", total)
	}
}

func TestFinishIdempotentAndDetaches(t *testing.T) {
	eng := sim.NewEngine()
	p := Attach(eng)
	eng.Schedule(0, "a", sim.Func(func() {}))
	eng.RunAll()
	r1 := p.Finish()
	r2 := p.Finish()
	if r1 != r2 {
		t.Fatal("Finish not idempotent")
	}
	if eng.Sink != nil {
		t.Fatal("Finish did not restore the engine sink")
	}
}

// funcSink is a plain func(Time, string) hook as a sim.EngineSink.
type funcSink func(t sim.Time, name string)

func (f funcSink) EngineEvent(t sim.Time, name string) { f(t, name) }

func TestAttachWrapsExistingSink(t *testing.T) {
	eng := sim.NewEngine()
	var seen []string
	eng.Sink = funcSink(func(_ sim.Time, name string) { seen = append(seen, name) })
	p := Attach(eng)
	eng.Schedule(0, "a", sim.Func(func() {}))
	eng.Schedule(1000, "b", sim.Func(func() {}))
	eng.RunAll()
	p.Finish()
	if len(seen) != 2 || seen[0] != "a" || seen[1] != "b" {
		t.Fatalf("wrapped sink saw %v, want [a b]", seen)
	}
	if eng.Sink == nil {
		t.Fatal("wrapped sink not restored after Finish")
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	_, r := toyRun(t)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	if strings.Count(line, "\n") != 0 {
		t.Fatalf("profile record spans multiple lines:\n%s", line)
	}
	var got struct {
		Kind string `json:"kind"`
		Report
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if got.Kind != "profile" || got.Schema != ReportSchema {
		t.Fatalf("kind/schema = %q/%q", got.Kind, got.Schema)
	}
	if got.Events != r.Events || len(got.Types) != len(r.Types) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.AttributedNs != r.AttributedNs || got.Heap != r.Heap {
		t.Fatalf("round trip changed values: %+v vs %+v", got.Report, *r)
	}
}

// FuzzProfileJSONLRoundTrip: any stream ReadJSONL accepts re-encodes
// through Report.WriteJSONL into a stream that reads back to as many
// reports, and encoding those again is byte-identical.
func FuzzProfileJSONLRoundTrip(f *testing.F) {
	var all bytes.Buffer
	_, toy := toyRun(f)
	for _, r := range []*Report{toy, meterRun(f)} {
		var buf bytes.Buffer
		if err := r.WriteJSONL(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		all.Write(buf.Bytes())
	}
	f.Add(all.Bytes())
	head := `{"kind":"profile","schema":"` + ReportSchema + `"`
	for _, s := range []string{
		head + `}`,
		head + `,"event_types":[],"obs":{"categories":[]}}`,
		head + `,"event_types":null,"obs":null,"events":18446744073709551615,"share":-0}`,
		head + `,"event_types":[{"key":"a\u00e9\ud800","count":1,"share":1e-300}]}`,
		`{"kind":"span","packet":1}` + "\n" + head + `,"wall_ns":-1,"sim_wall_ratio":5e-324}`,
	} {
		if _, err := ReadJSONL(strings.NewReader(s)); err != nil {
			f.Fatalf("seed %s: %v", s, err)
		}
		f.Add([]byte(s))
	}
	write := func(t *testing.T, reps []*Report) []byte {
		var buf bytes.Buffer
		for _, r := range reps {
			if err := r.WriteJSONL(&buf); err != nil {
				t.Fatalf("WriteJSONL: %v", err)
			}
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc := write(t, first)
		second, err := ReadJSONL(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-read of the writer's output: %v\n%s", err, enc)
		}
		if len(second) != len(first) {
			t.Fatalf("re-read %d reports, want %d", len(second), len(first))
		}
		if again := write(t, second); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding differs:\n%s\nvs\n%s", again, enc)
		}
	})
}

func TestMarkdownTable(t *testing.T) {
	_, r := toyRun(t)
	md := r.MarkdownTable()
	for _, want := range []string{"top event types", "| `tick` |", "events/sec", "queue:", "cancels", "runtime:"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown table missing %q:\n%s", want, md)
		}
	}
}

func TestPublish(t *testing.T) {
	_, r := toyRun(t)
	rec := obs.NewRecorder()
	r.Publish(rec)
	reg := rec.Metrics()
	if got := reg.Counter("prof.events").Value(); got != int64(r.Events) {
		t.Fatalf("prof.events = %d, want %d", got, r.Events)
	}
	if got := reg.Counter("prof.count.tick").Value(); got != 10 {
		t.Fatalf("prof.count.tick = %d, want 10", got)
	}
	if reg.Gauge("prof.events_per_sec").Value() <= 0 {
		t.Fatal("prof.events_per_sec not published")
	}
	if reg.Gauge("prof.heap.depth_max").Value() != float64(r.Heap.MaxDepth) {
		t.Fatal("prof.heap.depth_max mismatch")
	}
	// Publishing to a nil recorder must be a no-op, like every obs method.
	r.Publish(nil)
}

// meterRun is toyRun with an obs recorder metered via MeterObs, so the
// report carries the observer-tax section.
func meterRun(t testing.TB) *Report {
	t.Helper()
	eng := sim.NewEngine()
	p := Attach(eng)
	rec := obs.NewRecorder()
	p.MeterObs(rec)
	lat := rec.TimingH("toy.lat")
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(sim.Time(i*1000), "tick", sim.Func(func() {
			rec.Count("toy.ticks", 1)
			lat.Observe(sim.Duration(i) * sim.Microsecond)
			rec.PacketSpan(i, obs.DirUL, obs.LayerMAC, "tx", 0, eng.Now(), sim.Microsecond)
		}))
	}
	eng.RunAll()
	return p.Finish()
}

func TestMeterObsTax(t *testing.T) {
	r := meterRun(t)
	if r.Obs == nil {
		t.Fatal("metered run produced no obs tax section")
	}
	if r.Obs.Records != 30 {
		t.Fatalf("obs tax counted %d records, want 30", r.Obs.Records)
	}
	if r.Obs.WallNs <= 0 || r.Obs.RetainedBytes <= 0 {
		t.Fatalf("obs tax wall/retained not positive: %+v", r.Obs)
	}
	byCat := map[string]int64{}
	for _, c := range r.Obs.Categories {
		byCat[c.Category] = c.Records
	}
	if byCat["metric"] != 20 || byCat["span"] != 10 {
		t.Fatalf("per-category records = %v, want metric:20 span:10", byCat)
	}
	if md := r.MarkdownTable(); !strings.Contains(md, "observer tax:") {
		t.Fatalf("markdown table missing observer-tax line:\n%s", md)
	}
}

func TestReadJSONL(t *testing.T) {
	r1 := meterRun(t)
	_, r2 := toyRun(t)
	var buf bytes.Buffer
	buf.WriteString(`{"kind":"meta","schema":"urllcsim-trace/v1"}` + "\n") // foreign kinds are skipped
	if err := r1.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("\n") // blank lines are tolerated
	if err := r2.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	reps, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("read %d profile records, want 2", len(reps))
	}
	if reps[0].Obs == nil || reps[0].Obs.Records != r1.Obs.Records {
		t.Fatalf("first report lost its obs section: %+v", reps[0].Obs)
	}
	if reps[1].Obs != nil {
		t.Fatalf("unmetered report grew an obs section: %+v", reps[1].Obs)
	}
	if reps[1].Events != r2.Events {
		t.Fatalf("second report events = %d, want %d", reps[1].Events, r2.Events)
	}
}

// TestReadJSONLRejectsV2: the reader speaks only the current profile schema;
// a v2 record (or a future one) is a one-line error, not a partial report.
func TestReadJSONLRejectsV2(t *testing.T) {
	for _, line := range []string{
		`{"kind":"profile","schema":"urllcsim-profile/v2","label":"old","events":7,"attributed_ns":100}`,
		`{"kind":"profile","schema":"urllcsim-profile/v99"}`,
	} {
		reps, err := ReadJSONL(strings.NewReader(line))
		if err == nil {
			t.Fatalf("accepted %s: %+v", line, reps)
		}
		if msg := err.Error(); !strings.Contains(msg, "unsupported profile schema") || strings.Contains(msg, "\n") {
			t.Fatalf("error %q, want one line naming the unsupported profile schema", msg)
		}
	}
}
