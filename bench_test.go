// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md's experiment index). Run:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes its experiment end to end per iteration and
// reports domain metrics (worst-case latencies, means, miss counts) through
// b.ReportMetric, so `go test -bench` output doubles as the reproduction
// record. Correctness assertions live in the package tests; benchmarks only
// guard against silent regression of the headline numbers.
package urllcsim_test

import (
	"strings"
	"testing"

	"urllcsim/internal/core"
	"urllcsim/internal/experiments"
	"urllcsim/internal/nr"
	"urllcsim/internal/radio"
	"urllcsim/internal/sim"
)

// BenchmarkTable1 regenerates the feasibility matrix (Table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := core.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if diffs := m.MatchesPaper(); len(diffs) != 0 {
			b.Fatalf("Table 1 deviates from the paper: %v", diffs)
		}
	}
	v, _ := mustTable1(b).Verdict("DM", core.GrantFreeUL)
	b.ReportMetric(float64(v.Worst)/1e6, "DM-GF-worst-ms")
}

func mustTable1(b *testing.B) *core.Matrix {
	b.Helper()
	m, err := core.Table1()
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkTable2 regenerates the gNB layer processing/queueing table.
func BenchmarkTable2(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = experiments.Table2(uint64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !strings.Contains(out, "RLC-q") {
		b.Fatal("Table 2 report malformed")
	}
}

// BenchmarkFigure3 regenerates the journey breakdown of one ping.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(uint64(i+1), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the DM worst-case walks.
func BenchmarkFigure4(b *testing.B) {
	cfg := core.ConfigDM(nr.Mu2, core.DefaultAssumptions())
	var gf, gb, dl core.Journey
	for i := 0; i < b.N; i++ {
		var err error
		if gf, err = cfg.WorstCase(core.GrantFreeUL); err != nil {
			b.Fatal(err)
		}
		if gb, err = cfg.WorstCase(core.GrantBasedUL); err != nil {
			b.Fatal(err)
		}
		if dl, err = cfg.WorstCase(core.Downlink); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(gf.Latency())/1e6, "GF-worst-ms")
	b.ReportMetric(float64(gb.Latency())/1e6, "GB-worst-ms")
	b.ReportMetric(float64(dl.Latency())/1e6, "DL-worst-ms")
}

// BenchmarkFigure5 regenerates the submission-latency sweep.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := sim.NewRNG(uint64(i + 1))
		u2 := radio.SubmissionSweep(radio.USB2(), 2000, 20000, 2000, 50, rng)
		u3 := radio.SubmissionSweep(radio.USB3(), 2000, 20000, 2000, 50, rng)
		if len(u2) == 0 || len(u3) == 0 {
			b.Fatal("empty sweep")
		}
	}
	b.ReportMetric(radio.USB2().DeterministicLatency(20000).Seconds()*1e6, "usb2-20k-µs")
	b.ReportMetric(radio.USB3().DeterministicLatency(20000).Seconds()*1e6, "usb3-20k-µs")
}

// BenchmarkFigure6 regenerates the one-way latency distributions.
func BenchmarkFigure6(b *testing.B) {
	var sum map[string]experiments.Fig6Stats
	for i := 0; i < b.N; i++ {
		var err error
		sum, err = experiments.Fig6Summary(uint64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sum["gb-ul"].MeanMs, "GB-UL-mean-ms")
	b.ReportMetric(sum["gf-ul"].MeanMs, "GF-UL-mean-ms")
	b.ReportMetric(sum["gb-dl"].MeanMs, "DL-mean-ms")
}

// BenchmarkMmWaveReliability regenerates the FR2 blockage experiment (X1).
func BenchmarkMmWaveReliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MmWave(uint64(i+1), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlotDurationSweep regenerates the §4 bottleneck analysis (X2).
func BenchmarkSlotDurationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SlotSweep(0, 0); err != nil {
			b.Fatal(err)
		}
	}
	as := core.DefaultAssumptions()
	as.RadioLatency = 300 * sim.Microsecond
	j, err := core.ConfigDM(nr.Mu2, as).WorstCase(core.GrantFreeUL)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(j.Latency())/1e6, "GF-worst-radio0.3-ms")
}

// BenchmarkTable1_6G regenerates the 0.1 ms target evaluation (X3).
func BenchmarkTable1_6G(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1SixG(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTKernel regenerates the RT-vs-non-RT reliability ablation (X4).
func BenchmarkRTKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RTKernel(uint64(i+1), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerMargin regenerates the readiness-margin ablation (A1).
func BenchmarkSchedulerMargin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MarginAblation(uint64(i+1), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Assumptions regenerates the mixed-slot sensitivity (A2).
func BenchmarkTable1Assumptions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Assumptions(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiUE regenerates the UE-count inflation sweep (A3).
func BenchmarkMultiUE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MultiUE(uint64(i+1), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkURLLCAchieved regenerates the three-design feasibility study (X5).
func BenchmarkURLLCAchieved(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Achieved(uint64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(out, "ASIC") {
			b.Fatal("achieved report malformed")
		}
	}
}

// BenchmarkPingRTT regenerates the round-trip study (X6).
func BenchmarkPingRTT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RTT(uint64(i+1), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSRPeriod regenerates the SR-periodicity sweep (A4).
func BenchmarkSRPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SRPeriod(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGFScaling regenerates the grant-free scalability study (A5).
func BenchmarkGFScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GFScaling(uint64(i+1), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRACH regenerates the initial-access study (S1).
func BenchmarkRACH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RACH(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoverage regenerates the coverage study (S2).
func BenchmarkCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Coverage(uint64(i+1), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBLERCurve regenerates the PHY validation (V1).
func BenchmarkBLERCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BLERCurve(uint64(i+1), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad regenerates the queueing-collapse sweep (A6).
func BenchmarkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Load(uint64(i+1), 0); err != nil {
			b.Fatal(err)
		}
	}
}
