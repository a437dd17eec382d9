package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAllExperimentsRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, id := range []string{"table1", "table2", "figure3", "figure4", "figure5", "figure6",
		"mmwave", "slotsweep", "table1-6g", "rtkernel", "margin", "assumptions", "multiue"} {
		if !ids[id] {
			t.Fatalf("experiment %q missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus id found")
	}
}

func TestTable1ExperimentMatchesPaper(t *testing.T) {
	out, err := Table1(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "all 15 verdicts match") {
		t.Fatalf("Table 1 deviates from the paper:\n%s", out)
	}
}

func TestTable2ExperimentShape(t *testing.T) {
	out, err := Table2(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"SDAP", "RLC-q", "MAC", "PHY", "484.20"} {
		if !strings.Contains(out, col) {
			t.Fatalf("Table 2 report missing %q:\n%s", col, out)
		}
	}
}

func TestFigure4Verdicts(t *testing.T) {
	out, err := Figure4(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Grant-free and DL pass, grant-based fails — the Fig. 4 message.
	lines := strings.Split(out, "\n")
	var gf, gb, dl string
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "grant-free"):
			gf = l
		case strings.HasPrefix(l, "grant-based"):
			gb = l
		case strings.HasPrefix(l, "DL"):
			dl = l
		}
	}
	if !strings.Contains(gf, "✓") || !strings.Contains(dl, "✓") || !strings.Contains(gb, "✗") {
		t.Fatalf("Fig. 4 verdicts wrong:\n%s", out)
	}
}

func TestFigure5Monotone(t *testing.T) {
	out, err := Figure5(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "20000") || !strings.Contains(out, "2000") {
		t.Fatalf("Fig. 5 sweep incomplete:\n%s", out)
	}
}

func TestFig6SummaryShape(t *testing.T) {
	sum, err := Fig6Summary(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The §7 findings, as distribution statements:
	// 1. UL ≫ DL in both access modes.
	if sum["gb-ul"].MeanMs <= sum["gb-dl"].MeanMs || sum["gf-ul"].MeanMs <= sum["gf-dl"].MeanMs {
		t.Fatalf("UL not slower than DL: %+v", sum)
	}
	// 2. Grant-free removes ≈ one TDD period (2ms) from UL.
	saving := sum["gb-ul"].MeanMs - sum["gf-ul"].MeanMs
	if saving < 1.2 || saving > 4.5 {
		t.Fatalf("grant-free saving = %.2fms, want ≈2–3ms", saving)
	}
	// 3. DL is unaffected by the UL access mode.
	if d := sum["gb-dl"].MeanMs - sum["gf-dl"].MeanMs; d > 0.2 || d < -0.2 {
		t.Fatalf("DL changed with access mode by %.2fms", d)
	}
	// 4. Nothing is sub-ms often: URLLC is NOT met on this testbed (§7's
	// conclusion).
	for k, st := range sum {
		if st.SubMsFraction > 0.2 {
			t.Fatalf("%s sub-ms fraction %.2f — testbed should not meet URLLC", k, st.SubMsFraction)
		}
		if st.Delivered < st.Offered*9/10 {
			t.Fatalf("%s delivered %d/%d", k, st.Delivered, st.Offered)
		}
	}
}

func TestSlotSweepShowsBottleneck(t *testing.T) {
	out, err := SlotSweep(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With radio=0 halving slots halves latency (−50%); with 0.3ms radio
	// the improvement drops below 45%.
	if !strings.Contains(out, "−50%") {
		t.Fatalf("ideal-radio scaling missing:\n%s", out)
	}
	if !strings.Contains(out, "−43%") && !strings.Contains(out, "−38%") {
		t.Fatalf("radio-bottleneck degradation missing:\n%s", out)
	}
}

func TestAssumptionsAblation(t *testing.T) {
	out, err := Assumptions(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The 2-DL-symbol split must flip DM's DL verdict to ✗.
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "DM(2D/10U)") && !strings.Contains(l, "DL ✗") {
			t.Fatalf("2-symbol split did not break DL:\n%s", out)
		}
		if strings.HasPrefix(l, "DM(6D/6U)") && !strings.Contains(l, "DL ✓") {
			t.Fatalf("6-symbol split should pass DL:\n%s", out)
		}
	}
}

func TestMarginAblation(t *testing.T) {
	out, err := MarginAblation(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0/300") {
		t.Fatalf("margin 0 should deliver nothing:\n%s", out)
	}
	if !strings.Contains(out, "300/300") {
		t.Fatalf("some margin should deliver everything:\n%s", out)
	}
}

func TestRTKernelExperiment(t *testing.T) {
	out, err := RTKernel(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "non-RT") || !strings.Contains(out, "radio misses") {
		t.Fatalf("RT kernel report malformed:\n%s", out)
	}
}

func TestMmWaveExperiment(t *testing.T) {
	out, err := MmWave(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sub-ms round-trip") {
		t.Fatalf("mmWave report malformed:\n%s", out)
	}
}

func TestMultiUEInflation(t *testing.T) {
	out, err := MultiUE(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "16") {
		t.Fatalf("multi-UE sweep incomplete:\n%s", out)
	}
}

func TestRACHExperiment(t *testing.T) {
	out, err := RACH(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PRACH period") || !strings.Contains(out, "2.5ms") {
		t.Fatalf("RACH report malformed:\n%s", out)
	}
}

func TestCoverageCliff(t *testing.T) {
	out, err := Coverage(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	var nearOK, farOK float64
	for _, l := range lines {
		var d, los, nlos, bler, att, ok float64
		if n, _ := fmt.Sscanf(strings.ReplaceAll(l, "%", ""), "%fm %f %f %g %f %f", &d, &los, &nlos, &bler, &att, &ok); n == 6 {
			if d == 5 {
				nearOK = ok
			}
			if d == 300 {
				farOK = ok
			}
		}
	}
	if nearOK < 99.9 {
		t.Fatalf("near-cell first-attempt success %.2f%%, want ≈100%%:\n%s", nearOK, out)
	}
	if farOK > 60 {
		t.Fatalf("far NLOS corner success %.2f%%, cliff missing:\n%s", farOK, out)
	}
}

func TestBLERCurveAgreement(t *testing.T) {
	out, err := BLERCurve(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// At BER 0.08 both columns must sit in the same waterfall region.
	for _, l := range strings.Split(out, "\n") {
		var ber, mc, an float64
		if n, _ := fmt.Sscanf(strings.ReplaceAll(l, "%", ""), "%f %f %f", &ber, &mc, &an); n == 3 && ber == 0.08 {
			if mc < 30 || mc > 90 || an < 30 || an > 90 {
				t.Fatalf("waterfall mismatch at BER 0.08: MC %.1f vs analytic %.1f", mc, an)
			}
			if mc/an > 2 || an/mc > 2 {
				t.Fatalf("MC %.1f and analytic %.1f diverge", mc, an)
			}
			return
		}
	}
	t.Fatalf("BER 0.08 row missing:\n%s", out)
}

func TestExperimentsDeterministicPerSeed(t *testing.T) {
	// The whole Fig. 6 pipeline — engine, scheduler, channel, jitter —
	// must be byte-identical for equal seeds and differ across seeds.
	a, err := Fig6Summary(9, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig6Summary(9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("panel %s diverged between identical seeds: %+v vs %+v", k, a[k], b[k])
		}
	}
	c, err := Fig6Summary(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for k := range a {
		if a[k] != c[k] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical distributions")
	}
}

// TestSeedPlumbing pins the Deterministic flag in both directions: every
// experiment marked Deterministic must produce byte-identical output across
// seeds (it is pure closed-form analysis), and a seeded simulation experiment
// must actually consume its seed — the bug this flag documents was seeds
// silently ignored.
func TestSeedPlumbing(t *testing.T) {
	for _, e := range All {
		if !e.Deterministic {
			continue
		}
		a, err := e.Run(1, 1)
		if err != nil {
			t.Fatalf("%s(seed=1): %v", e.ID, err)
		}
		b, err := e.Run(99, 1)
		if err != nil {
			t.Fatalf("%s(seed=99): %v", e.ID, err)
		}
		if a != b {
			t.Errorf("%s is marked Deterministic but its output depends on the seed", e.ID)
		}
	}
	// And the converse on a cheap seeded experiment: the ping journey's
	// processing jitter must follow the seed.
	a, err := Figure3(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure3(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("figure3 ignores its seed: identical journeys for seeds 1 and 2")
	}
}

// TestExperimentsWorkerInvariance is the end-to-end form of the sweep
// contract: a sharded experiment's full rendered output is byte-identical
// whether its shards run on 1 worker or 8.
func TestExperimentsWorkerInvariance(t *testing.T) {
	for _, e := range []struct {
		id  string
		run func(seed uint64, workers int) (string, error)
	}{
		{"table1", Table1},
		{"table2", Table2},
		{"margin", MarginAblation},
		{"figure6", Figure6},
		{"mmwave", MmWave},
	} {
		seq, err := e.run(3, 1)
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		par, err := e.run(3, 8)
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		if seq != par {
			t.Errorf("%s: 8-worker output differs from sequential:\n-- 1 worker --\n%s-- 8 workers --\n%s", e.id, seq, par)
		}
	}
	// The Fig. 6 distribution pipeline returns structured panels; compare
	// them field-by-field across worker counts.
	a, err := Fig6Summary(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig6Summary(9, 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a {
		if a[k] != b[k] {
			t.Errorf("fig6 panel %s differs across worker counts: %+v vs %+v", k, a[k], b[k])
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestFigure3Golden pins the Fig. 3 journey table byte for byte at seed 1.
// Regenerate with `go test ./internal/experiments -run Figure3Golden -update`.
func TestFigure3Golden(t *testing.T) {
	got, err := Figure3(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure3.golden", got)
}

// TestBLERCurveGolden pins V1 byte for byte at seed 2: the real
// encode→flip→Viterbi→CRC chain's Monte-Carlo column and the analytic one.
// Regenerate with `go test ./internal/experiments -run BLERCurveGolden -update`.
func TestBLERCurveGolden(t *testing.T) {
	got, err := BLERCurve(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "blercurve.golden", got)
}

// TestFigure6Golden pins both Fig. 6 panels byte for byte at seed 1: the
// four distributions' stats lines and ASCII rows.
// Regenerate with `go test ./internal/experiments -run Figure6Golden -update`.
func TestFigure6Golden(t *testing.T) {
	got, err := Figure6(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure6.golden", got)
}

// TestMmWaveGolden pins X1 byte for byte at seed 1, the sub-ms round-trip
// estimate among it.
// Regenerate with `go test ./internal/experiments -run MmWaveGolden -update`.
func TestMmWaveGolden(t *testing.T) {
	got, err := MmWave(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mmwave.golden", got)
}

// TestRTTGolden pins X6 byte for byte at seed 1: the simulated ping RTT
// lines and the analytic verdicts.
// Regenerate with `go test ./internal/experiments -run RTTGolden -update`.
func TestRTTGolden(t *testing.T) {
	got, err := RTT(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "rtt.golden", got)
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from %s\ngot:\n%s\nwant:\n%s", name, path, got, want)
	}
}
