package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"urllcsim/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// promFixture builds a registry exercising every exposition shape the
// simulator emits: plain counters/gauges/timings (including the watchdog.*
// names the anomaly watchdog stamps), and all three labeled family kinds.
func promFixture() *Recorder {
	rec := NewRecorder()
	rec.Count("pkt.delivered", 42)
	rec.Count("harq.retx", 3)
	rec.Count("watchdog.anomalies", 2)
	rec.SetGauge("rlc.dl.queue_depth", 4)
	rec.SetGauge("watchdog.ul.miss_rate", 0.015625)
	rec.SetGauge("watchdog.ul.p99_us", 487.5)
	rec.SetGauge("watchdog.dl.miss_rate", 0)
	latUL := rec.TimingH("lat.ul")
	for i := 1; i <= 8; i++ {
		latUL.Observe(sim.Duration(i) * 50 * sim.Microsecond)
	}
	pkt := CounterFamH[PktEvent](rec, "pkt.by_ue")
	take := GaugeFamH[UEKey](rec, "slot.ue_dl_take_bytes")
	lat := HistFamH[UEDir](rec, "lat.by_ue")
	for ue := 0; ue < 2; ue++ {
		pkt.Add(PktEvent{UE: ue, Dir: DirUL, Event: FateDelivered}, int64(10+ue))
		take.Set(UEKey{UE: ue}, float64(32*(ue+1)))
		lat.Observe(UEDir{UE: ue, Dir: DirUL}, sim.Duration(100+ue)*sim.Microsecond)
		lat.Observe(UEDir{UE: ue, Dir: DirUL}, sim.Duration(300+ue)*sim.Microsecond)
	}
	return rec
}

// TestPrometheusGolden pins the full exposition text — HELP/TYPE pairing,
// name mangling, label rendering and bucket layout — against
// testdata/prometheus.golden. A diff here means the scrape format changed for
// every dashboard consuming it; regenerate deliberately with
// `go test ./internal/obs -run Golden -update`.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	writePrometheus(&buf, promFixture().Metrics())

	path := filepath.Join("testdata", "prometheus.golden")
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
		t.Fatalf("prometheus exposition drifted from golden (run with -update if intended)\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

// TestPrometheusHelpTypeConsistency: every exposed sample name is introduced
// by exactly one HELP and one TYPE line before its first sample, and the
// declared type matches the sample shape — checked structurally over the same
// fixture the golden test pins, plus the generic validity checker shared with
// the live-handler tests.
func TestPrometheusHelpTypeConsistency(t *testing.T) {
	var buf bytes.Buffer
	writePrometheus(&buf, promFixture().Metrics())
	body := buf.String()
	checkPrometheusText(t, body)
	checkHelpTypeHeaders(t, body)
}

// checkHelpTypeHeaders enforces the exposition-format metadata contract:
// exactly one # HELP and one # TYPE per metric name, both appearing before
// the name's first sample, and no samples under an undeclared name.
func checkHelpTypeHeaders(t *testing.T, body string) {
	t.Helper()
	help := map[string]int{}
	typ := map[string]string{}
	sampled := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			help[name]++
			if help[name] > 1 {
				t.Fatalf("duplicate # HELP for %s", name)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if _, dup := typ[name]; dup {
				t.Fatalf("duplicate # TYPE for %s", name)
			}
			if sampled[name] {
				t.Fatalf("# TYPE for %s appears after its first sample", name)
			}
			typ[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		metric := line[:strings.IndexAny(line, "{ ")]
		base := metric
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(metric, suf); ok && typ[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		kind, declared := typ[base]
		if !declared {
			t.Fatalf("sample %q has no # TYPE declaration", metric)
		}
		if help[base] == 0 {
			t.Fatalf("sample %q has no # HELP declaration", metric)
		}
		if kind == "counter" && !strings.HasSuffix(base, "_total") {
			t.Fatalf("counter %s does not follow the _total naming convention", base)
		}
		sampled[base] = true
	}
	for name := range typ {
		if !sampled[name] {
			t.Fatalf("# TYPE %s declared but no samples follow", name)
		}
	}
}
