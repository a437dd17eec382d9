package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"urllcsim/internal/core"
	"urllcsim/internal/sim"
)

func sampleRecorder() *Recorder {
	r := NewRecorder()
	r.PacketSpan(0, DirUL, LayerStack, "① UE APP↓", core.Processing, sim.Time(1000), 30*sim.Microsecond)
	r.PacketSpan(0, DirUL, LayerSched, "② wait", core.Protocol, sim.Time(31000), 100*sim.Microsecond)
	r.PacketSpan(1, DirDL, LayerAir, "⑩ on air", core.Protocol, sim.Time(2000), 142*sim.Microsecond)
	r.Count("harq.retx", 2)
	r.SetGauge("rlc.depth", 3)
	r.Observe("lat.ul", 900*sim.Microsecond)
	r.SlotSnapshot(sim.Time(500000))
	return r
}

func TestWriteJSONL(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSONL(&sb, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var kinds []string
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, m["kind"].(string))
	}
	if len(kinds) != 4 { // meta + 3 spans
		t.Fatalf("wrote %d lines, want 4: %v", len(kinds), kinds)
	}
	if kinds[0] != "meta" || kinds[1] != "span" || kinds[3] != "span" {
		t.Fatalf("kinds = %v", kinds)
	}

	lines := strings.SplitN(sb.String(), "\n", 3)
	var meta map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatal(err)
	}
	if meta["schema"] != TraceSchema {
		t.Fatalf("meta schema = %v, want %v", meta["schema"], TraceSchema)
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &first); err != nil {
		t.Fatal(err)
	}
	if first["layer"] != "stack" || first["source"] != "processing" || first["dur_us"] != 30.0 {
		t.Fatalf("first span = %v", first)
	}
}

// TestWriteChromeTrace checks the exported file is valid Chrome trace-event
// JSON: a traceEvents array whose X events carry µs ts/dur, with packet
// spans grouped per-direction process and per-packet thread.
func TestWriteChromeTrace(t *testing.T) {
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &tr); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	var x, meta, counter int
	var pkt0Sum float64
	for _, e := range tr.TraceEvents {
		switch e["ph"] {
		case "X":
			x++
			if e["args"].(map[string]any)["packet"] == 0.0 {
				pkt0Sum += e["dur"].(float64)
			}
		case "M":
			meta++
		case "C":
			counter++
		default:
			t.Fatalf("unexpected event phase %v", e["ph"])
		}
	}
	if x != 3 {
		t.Fatalf("X=%d, want 3", x)
	}
	if meta < 3 { // process names + at least the packet threads
		t.Fatalf("only %d metadata events", meta)
	}
	if counter != 1 { // one snapshot × one counter
		t.Fatalf("%d counter events, want 1", counter)
	}
	if pkt0Sum != 130 { // 30 µs + 100 µs
		t.Fatalf("packet-0 span sum %v µs, want 130", pkt0Sum)
	}
}

func TestWriteMetricsCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteMetricsCSV(&sb, sampleRecorder().Metrics()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 { // header + counter + gauge + timing
		t.Fatalf("%d lines: %v", len(lines), lines)
	}
	if !strings.HasPrefix(lines[0], "kind,name,value") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "counter,harq.retx,2") {
		t.Fatalf("counter row = %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "timing,lat.ul,,900.000") {
		t.Fatalf("timing row = %q", lines[3])
	}
}

// TestTimingQuantilesWithinOneBucket: the p50 and p99 a timing reports —
// in the metrics CSV and the registry summary — lie within one HDR bucket
// width, at most 0.1 % relative, of the exact-rank sample.
func TestTimingQuantilesWithinOneBucket(t *testing.T) {
	reg := NewRegistry()
	tm := reg.Timing("lat.ul")
	var xs []int64
	x := uint64(1)
	for i := 0; i < 20_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		d := 20_000 + int64(x>>33)%2_000_000 // 20 µs … 2 ms, ns
		if i%100 == 0 {
			d *= 3 // a tail
		}
		xs = append(xs, d)
		tm.Observe(sim.Duration(d))
	}
	slices.Sort(xs)
	var sb strings.Builder
	if err := WriteMetricsCSV(&sb, reg); err != nil {
		t.Fatal(err)
	}
	row := strings.Split(strings.TrimSpace(sb.String()), "\n")[1]
	cols := strings.Split(row, ",") // kind,name,value,mean_us,std_us,p50_us,p99_us,max_us,n
	summary := strings.Fields(strings.Split(reg.Summary(), "\n")[2])
	for _, c := range []struct {
		q   float64
		csv string
	}{{0.5, cols[5]}, {0.99, cols[6]}} {
		exact := xs[int(c.q*float64(len(xs)-1))]
		got := tm.HDR.Quantile(c.q)
		if w := tm.HDR.BucketWidth(exact); abs(got-exact) > w || float64(abs(got-exact)) > 1e-3*float64(exact) {
			t.Errorf("q=%v: %d ns, exact-rank sample %d ns, bucket width %d ns", c.q, got, exact, w)
		}
		if want := fmt.Sprintf("%.3f", float64(got)/1000); c.csv != want {
			t.Errorf("q=%v: CSV column %s, want %s", c.q, c.csv, want)
		}
		if want := fmt.Sprintf("%.2f", float64(got)/1000); c.q == 0.99 && summary[3] != want {
			t.Errorf("summary p99 %s, want %s", summary[3], want)
		}
	}
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestWriteSnapshotsCSV(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Inc()
	reg.Snapshot(sim.Time(1000))
	reg.Counter("b").Add(9)
	reg.Gauge("g").Set(1.5)
	reg.Snapshot(sim.Time(2000))

	var sb strings.Builder
	if err := WriteSnapshotsCSV(&sb, reg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines: %v", len(lines), lines)
	}
	if lines[0] != "t_us,a,b,g" {
		t.Fatalf("header = %q", lines[0])
	}
	// First snapshot predates b and g: padded with empty cells.
	if lines[1] != "1.00,1,," {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if lines[2] != "2.00,1,9,1.5" {
		t.Fatalf("row 2 = %q", lines[2])
	}
}

func TestCSVEscape(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"a,b", `"a,b"`},
		{`q"uote`, `"q""uote"`},
	}
	for _, c := range cases {
		if got := csvEscape(c.in); got != c.want {
			t.Fatalf("csvEscape(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
