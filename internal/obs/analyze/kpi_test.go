package analyze

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"urllcsim/internal/obs"
	"urllcsim/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestJain pins the fairness index on hand-computable inputs.
func TestJain(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 1},                   // no UEs: vacuously fair
		{[]float64{0, 0}, 1},       // all-zero: no one is favoured
		{[]float64{5, 5, 5, 5}, 1}, // perfectly fair
		{[]float64{1, 2, 3}, 6.0 / 7.0},
		{[]float64{1, 0, 0, 0}, 0.25}, // one UE hogs everything: 1/n
	}
	for _, c := range cases {
		if got := jain(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("jain(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestComputeAoIHandChecked walks a three-delivery sawtooth whose peak and
// time-average are computable by hand, then checks the stale-sample and
// degenerate rules.
func TestComputeAoIHandChecked(t *testing.T) {
	// gen 0→delivered 10, gen 20→25, gen 40→55 (µs).
	// Ages just before deliveries: 25−0=25 and 55−20=35 (peak).
	// Sawtooth area: (25²−10²)/2 + (35²−5²)/2 = 262.5 + 600 = 862.5 over the
	// 45 µs between first and last delivery → mean 19.1666…
	ds := []aoiDelivery{{gen: 0, at: 10}, {gen: 20, at: 25}, {gen: 40, at: 55}}
	peak, mean, ok := computeAoI(ds)
	if !ok || peak != 35 || math.Abs(mean-862.5/45) > 1e-12 {
		t.Fatalf("sawtooth: peak=%v mean=%v ok=%v, want 35, %v, true", peak, mean, ok, 862.5/45)
	}

	// A stale delivery (older generation than the freshest delivered) must
	// not reset the age or change the result.
	stale := append([]aoiDelivery{{gen: 30, at: 60}}, ds...)
	peak2, mean2, ok2 := computeAoI(stale)
	if !ok2 || peak2 != peak || math.Abs(mean2-mean) > 1e-12 {
		t.Fatalf("stale delivery changed AoI: peak=%v mean=%v", peak2, mean2)
	}

	// One delivery: the only age ever observed is its own latency.
	if p, m, ok := computeAoI([]aoiDelivery{{gen: 0, at: 7}}); !ok || p != 7 || m != 7 {
		t.Fatalf("single delivery: peak=%v mean=%v ok=%v", p, m, ok)
	}

	// No informative delivery at all.
	if _, _, ok := computeAoI([]aoiDelivery{{gen: 5, at: 5}}); ok {
		t.Fatal("zero-latency delivery must not count as informative")
	}
}

// kpiTrace is a small deterministic fixture: two UEs in each direction with
// distinct delivery counts, latencies and one loss.
func kpiTrace() *Trace {
	us := func(n int64) sim.Duration { return sim.Duration(n) * sim.Microsecond }
	at := func(n int64) sim.Time { return sim.Time(us(n)) }
	return &Trace{Outcomes: []obs.Outcome{
		{Packet: 0, UE: 0, Dir: obs.DirUL, Delivered: true, Latency: us(100), Attempts: 1, End: at(1100)},
		{Packet: 1, UE: 1, Dir: obs.DirUL, Delivered: true, Latency: us(200), Attempts: 1, End: at(2200)},
		{Packet: 2, UE: 0, Dir: obs.DirUL, Delivered: true, Latency: us(300), Attempts: 2, End: at(3300)},
		{Packet: 3, UE: 1, Dir: obs.DirUL, Delivered: false, Latency: 0, Attempts: 4},
		{Packet: 4, UE: 0, Dir: obs.DirDL, Delivered: true, Latency: us(150), Attempts: 1, End: at(1150)},
		{Packet: 5, UE: 1, Dir: obs.DirDL, Delivered: true, Latency: us(150), Attempts: 1, End: at(2150)},
	}}
}

// TestComputeKPIHandChecked: reliabilities, per-direction aggregates and the
// Jain indices of the fixture match hand arithmetic, and the report is
// invariant under outcome reordering.
func TestComputeKPIHandChecked(t *testing.T) {
	rep := ComputeKPI(kpiTrace(), "fix")
	if len(rep.UEs) != 4 || len(rep.Dirs) != 2 {
		t.Fatalf("got %d UE rows, %d dirs", len(rep.UEs), len(rep.Dirs))
	}
	// Rows are (dir, ue) ascending: UL before DL per obs.Dir ordering.
	ul1 := rep.UEs[1]
	if ul1.UE != 1 || ul1.Dir != obs.DirUL || ul1.Delivered != 1 || ul1.Lost != 1 || ul1.Reliability != 0.5 {
		t.Fatalf("UL ue1 row wrong: %+v", ul1)
	}
	var ulDir DirKPI
	for _, d := range rep.Dirs {
		if d.Dir == obs.DirUL {
			ulDir = d
		}
	}
	if ulDir.UEs != 2 || ulDir.Delivered != 3 || ulDir.Lost != 1 {
		t.Fatalf("UL dir aggregate wrong: %+v", ulDir)
	}
	// Throughputs [2,1]: J = 9/(2·5) = 0.9.
	if math.Abs(ulDir.JainThroughput-0.9) > 1e-12 {
		t.Fatalf("UL Jain throughput = %v, want 0.9", ulDir.JainThroughput)
	}
	// The CCDF starts below 1 (some mass in the first bucket) and decreases
	// to 0 at the max-latency bucket.
	ccdf := ulDir.CCDF
	if len(ccdf) == 0 || ccdf[len(ccdf)-1].CCDF != 0 {
		t.Fatalf("CCDF must end at 0: %+v", ccdf)
	}
	for i := 1; i < len(ccdf); i++ {
		if ccdf[i].CCDF > ccdf[i-1].CCDF || ccdf[i].LeUs <= ccdf[i-1].LeUs {
			t.Fatalf("CCDF not monotone at %d: %+v", i, ccdf)
		}
	}

	// AoI for UL ue0: deliveries gen 1000→1100 and gen 3000→3300.
	// Pre-delivery age 3300−1000=2300 is the peak.
	ul0 := rep.UEs[0]
	if !ul0.HasAoI || ul0.AoIPeakUs != 2300 {
		t.Fatalf("UL ue0 AoI peak = %v (has=%v), want 2300", ul0.AoIPeakUs, ul0.HasAoI)
	}

	// Reordering outcomes must not change the report.
	tr := kpiTrace()
	for i, j := 0, len(tr.Outcomes)-1; i < j; i, j = i+1, j-1 {
		tr.Outcomes[i], tr.Outcomes[j] = tr.Outcomes[j], tr.Outcomes[i]
	}
	if !reflect.DeepEqual(rep, ComputeKPI(tr, "fix")) {
		t.Fatal("report depends on outcome order")
	}
}

// TestKPIJSONLRoundTrip: write → read reconstructs the report exactly (the
// wire format carries the same µs floats the report stores).
func TestKPIJSONLRoundTrip(t *testing.T) {
	rep := ComputeKPI(kpiTrace(), "fix")
	var buf bytes.Buffer
	if err := WriteKPIJSONL(&buf, rep); err != nil {
		t.Fatal(err)
	}
	kf, err := ReadKPIJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !kf.HasMeta {
		t.Fatal("meta line lost")
	}
	if !reflect.DeepEqual(*rep, kf.Report) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", kf.Report, *rep)
	}
}

// TestKPIJSONLRejectsNonFinite: a NaN or infinite KPI has no JSON form, so
// the writer returns an error instead of writing a line readers would reject.
func TestKPIJSONLRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rep := ComputeKPI(kpiTrace(), "fix")
		rep.UEs[1].MeanUs = v
		if err := WriteKPIJSONL(&bytes.Buffer{}, rep); err == nil {
			t.Errorf("mean_us %v: want an error", v)
		}
	}
}

// TestKPIReaderRejectsUnknownSchema: version skew is an error, not a
// zero-filled report.
func TestKPIReaderRejectsUnknownSchema(t *testing.T) {
	in := `{"kind":"kpi_meta","schema":"urllcsim-kpi/v99"}` + "\n"
	_, err := ReadKPIJSONL(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "unsupported kpi schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

// TestKPICSVGolden pins the KPI and CCDF CSV exports byte for byte on the
// deterministic fixture; regenerate with -update.
func TestKPICSVGolden(t *testing.T) {
	reps := []*KPIReport{ComputeKPI(kpiTrace(), "fix")}
	for _, c := range []struct {
		file  string
		write func(*bytes.Buffer) error
	}{
		{"kpi.csv.golden", func(b *bytes.Buffer) error { return WriteKPICSV(b, reps) }},
		{"ccdf.csv.golden", func(b *bytes.Buffer) error { return WriteCCDFCSV(b, reps) }},
	} {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", c.file)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s drifted from golden (run with -update if intended)\ngot:\n%s\nwant:\n%s",
				c.file, buf.Bytes(), want)
		}
	}
}

// TestKPIMarkdownSections: the rendered section carries the headline table,
// the Jain line and the CCDF excerpt.
func TestKPIMarkdownSections(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteKPIMarkdown(&buf, ComputeKPI(kpiTrace(), "fix")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## Per-UE KPIs — fix",
		"Jain fairness",
		"| UE | delivered | lost |",
		"Reliability (latency bound",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

// TestKPIJSONLGolden pins the urllcsim-kpi/v1 export byte for byte. The
// report is computed from the obs trace golden (a grant-free cell with
// collisions, retransmissions and losses) plus one UE that delivered
// nothing, so ue_kpi rows with and without AoI fields both appear.
// Regenerate with `go test -run KPIJSONLGolden -update`.
func TestKPIJSONLGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "testdata", "trace.jsonl.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		tr.Outcomes = append(tr.Outcomes, obs.Outcome{Packet: 1000 + p, UE: 99, Dir: obs.DirDL, Attempts: 4})
	}
	rep := ComputeKPI(tr, "golden <cell> & \"kpi\"")
	var aoi, noAoI bool
	for _, u := range rep.UEs {
		aoi = aoi || u.HasAoI
		noAoI = noAoI || !u.HasAoI
	}
	if !aoi || !noAoI {
		t.Fatalf("KPI fixture lacks a row shape: with AoI=%v without=%v", aoi, noAoI)
	}
	var buf bytes.Buffer
	if err := WriteKPIJSONL(&buf, rep); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "kpi.jsonl.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("kpi.jsonl.golden drifted (%d vs %d bytes); regenerate with -update only for an intended format change",
			buf.Len(), len(want))
	}
}
