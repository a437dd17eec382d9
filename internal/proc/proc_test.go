package proc

import (
	"math"
	"testing"

	"urllcsim/internal/sim"
)

func moments(t *testing.T, sample func(*sim.RNG) sim.Duration, n int) (mean, std float64) {
	t.Helper()
	rng := sim.NewRNG(1234)
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		us := float64(sample(rng)) / 1000
		sum += us
		sumsq += us * us
	}
	mean = sum / float64(n)
	std = math.Sqrt(sumsq/float64(n) - mean*mean)
	return
}

func TestDeterministicDist(t *testing.T) {
	d := NewDist(Deterministic, 55.21, 99)
	rng := sim.NewRNG(1)
	for i := 0; i < 10; i++ {
		if got := d.Sample(rng); got != sim.Duration(55210) {
			t.Fatalf("deterministic sample = %v", got)
		}
	}
	if d.Mean() != sim.Duration(55210) {
		t.Fatalf("Mean = %v", d.Mean())
	}
}

func TestNormalDistTruncated(t *testing.T) {
	d := NewDist(Normal, 2, 10)
	rng := sim.NewRNG(2)
	for i := 0; i < 10000; i++ {
		if d.Sample(rng) < 0 {
			t.Fatal("negative processing time")
		}
	}
}

func TestLogNormalMatchesTable2(t *testing.T) {
	// Each Table 2 layer distribution must reproduce its configured moments.
	p := GNBTable2Profile()
	want := map[Layer][2]float64{
		LayerSDAP: {4.65, 6.71},
		LayerPDCP: {8.29, 8.99},
		LayerRLC:  {4.12, 8.37},
		LayerMAC:  {55.21, 16.31},
		LayerPHY:  {41.55, 10.83},
	}
	for l, w := range want {
		d := p.Dists[l]
		mean, std := moments(t, d.Sample, 300000)
		if math.Abs(mean-w[0])/w[0] > 0.03 {
			t.Errorf("%v mean = %.2fµs, want %.2f", l, mean, w[0])
		}
		if math.Abs(std-w[1])/w[1] > 0.05 {
			t.Errorf("%v std = %.2fµs, want %.2f", l, std, w[1])
		}
	}
}

func TestUEProfileSlowerThanGNB(t *testing.T) {
	// §7: "the UE needs more time for processing than gNB".
	ue, gnb := UEModemProfile(), GNBTable2Profile()
	for _, l := range Layers {
		if ue.Dists[l].Mean() <= gnb.Dists[l].Mean() {
			t.Errorf("UE %v mean %v not above gNB %v", l, ue.Dists[l].Mean(), gnb.Dists[l].Mean())
		}
	}
	if ue.TotalMean() <= gnb.TotalMean() {
		t.Fatal("UE total processing must exceed gNB")
	}
}

func TestProfileLoadScaling(t *testing.T) {
	p := GNBTable2Profile()
	rng1, rng2 := sim.NewRNG(7), sim.NewRNG(7)
	oneUE := p.Sample(LayerMAC, 1, rng1)
	tenUE := p.Sample(LayerMAC, 10, rng2)
	wantRatio := 1 + p.UEScale*9
	gotRatio := float64(tenUE) / float64(oneUE)
	if math.Abs(gotRatio-wantRatio) > 1e-3 { // ns truncation of Duration
		t.Fatalf("load scaling ratio = %v, want %v", gotRatio, wantRatio)
	}
	// Zero scale profiles are unaffected by load.
	ue := UEModemProfile()
	a := ue.Sample(LayerPHY, 1, sim.NewRNG(9))
	b := ue.Sample(LayerPHY, 50, sim.NewRNG(9))
	if a != b {
		t.Fatal("UEScale=0 profile scaled with load")
	}
}

func TestIdealAndASICProfiles(t *testing.T) {
	if IdealProfile().TotalMean() != 0 {
		t.Fatal("ideal profile must cost nothing")
	}
	asic := ASICProfile()
	if asic.TotalMean() != sim.Duration(17*1000) {
		t.Fatalf("ASIC total = %v, want 17µs", asic.TotalMean())
	}
	// ASIC is deterministic.
	a := asic.Sample(LayerPHY, 1, sim.NewRNG(1))
	b := asic.Sample(LayerPHY, 1, sim.NewRNG(99))
	if a != b {
		t.Fatal("ASIC profile must be deterministic")
	}
}

func TestGNBTotalFitsOneSlotBudget(t *testing.T) {
	// §5/§7: software processing (≈114µs mean total) must fit within one
	// 0.25ms slot for URLLC to be feasible — the paper's headline
	// feasibility argument. Verify our Table 2 parameterisation satisfies it.
	total := GNBTable2Profile().TotalMean()
	if total >= 250*sim.Microsecond {
		t.Fatalf("gNB mean processing %v exceeds one µ2 slot", total)
	}
	if total <= 50*sim.Microsecond {
		t.Fatalf("gNB mean processing %v implausibly low", total)
	}
}

func TestOSJitterProfiles(t *testing.T) {
	rng := sim.NewRNG(5)
	nonRT, rt := NonRTKernel(), RTKernel()
	var nrtSpikes, rtSpikes int
	const n = 200000
	for i := 0; i < n; i++ {
		if nonRT.Sample(rng) > 30*sim.Microsecond {
			nrtSpikes++
		}
		if rt.Sample(rng) > 30*sim.Microsecond {
			rtSpikes++
		}
	}
	if nrtSpikes == 0 {
		t.Fatal("non-RT kernel produced no spikes")
	}
	if rtSpikes*10 >= nrtSpikes {
		t.Fatalf("RT kernel spikes (%d) not ≪ non-RT (%d)", rtSpikes, nrtSpikes)
	}
	if NoJitter().Sample(rng) != 0 {
		t.Fatal("NoJitter must sample 0")
	}
}

func TestOSJitterNonNegative(t *testing.T) {
	rng := sim.NewRNG(6)
	j := NonRTKernel()
	for i := 0; i < 10000; i++ {
		if j.Sample(rng) < 0 {
			t.Fatal("negative jitter")
		}
	}
}

func TestLayerStrings(t *testing.T) {
	want := []string{"SDAP", "PDCP", "RLC", "MAC", "PHY"}
	for i, l := range Layers {
		if l.String() != want[i] {
			t.Fatalf("layer %d = %q", i, l.String())
		}
	}
}

// perCallLogNormal is the per-draw formula NewDist replaced: µ and σ derived
// from the mean and std on every call. It is kept as the oracle of
// TestLogNormalDrawsMatchPerCallFormula.
func perCallLogNormal(r *sim.RNG, mean, std float64) float64 {
	v := std * std
	m2 := mean * mean
	mu := math.Log(m2 / math.Sqrt(v+m2))
	sigma := math.Sqrt(math.Log(1 + v/m2))
	return math.Exp(mu + sigma*r.Norm())
}

// TestLogNormalDrawsMatchPerCallFormula checks that deriving µ and σ once,
// in the profile constructors, changes no draw: every Table 2 and UE-modem
// layer, drawn 10⁵ times from one RNG, equals the per-call formula drawn
// from a second RNG with the same seed, bit for bit, and so does each
// Sample's duration; the two RNGs end in the same state.
func TestLogNormalDrawsMatchPerCallFormula(t *testing.T) {
	type params struct{ mean, std float64 }
	cases := []struct {
		p    *Profile
		want [numLayers]params
	}{
		{GNBTable2Profile(), [numLayers]params{{4.65, 6.71}, {8.29, 8.99}, {4.12, 8.37}, {55.21, 16.31}, {41.55, 10.83}}},
		{UEModemProfile(), [numLayers]params{{14, 15}, {25, 20}, {12, 18}, {120, 45}, {150, 60}}},
	}
	const n = 100_000
	for _, c := range cases {
		for _, l := range Layers {
			d, w := c.p.Dists[l], c.want[l]
			if d.kind != LogNormal || d.Mean() != sim.Duration(w.mean*1000) {
				t.Fatalf("%s %v: kind %d mean %v, want log-normal %v µs", c.p.Name, l, d.kind, d.Mean(), w.mean)
			}
			got, want := sim.NewRNG(uint64(l)+1), sim.NewRNG(uint64(l)+1)
			for i := 0; i < n; i++ {
				g, o := d.logn.Draw(got), perCallLogNormal(want, w.mean, w.std)
				if math.Float64bits(g) != math.Float64bits(o) {
					t.Fatalf("%s %v draw %d: %v, per-call formula %v", c.p.Name, l, i, g, o)
				}
				if s, ref := d.Sample(got), sim.Duration(perCallLogNormal(want, w.mean, w.std)*1000); s != ref {
					t.Fatalf("%s %v sample %d: %v, per-call formula %v", c.p.Name, l, i, s, ref)
				}
			}
			if *got != *want {
				t.Fatalf("%s %v: RNG states diverged after %d draws", c.p.Name, l, 2*n)
			}
		}
	}
}

// TestDegenerateLogNormalIsFixed checks NewDist's degenerate log-normals:
// a non-positive mean draws 0, a non-positive std its mean, and neither
// consumes randomness.
func TestDegenerateLogNormalIsFixed(t *testing.T) {
	for _, c := range []struct {
		mean, std float64
		want      sim.Duration
	}{{5, 0, 5000}, {5, -1, 5000}, {0, 3, 0}, {-2, 3, 0}} {
		rng, fresh := sim.NewRNG(3), sim.NewRNG(3)
		if got := NewDist(LogNormal, c.mean, c.std).Sample(rng); got != c.want {
			t.Errorf("log-normal(%v, %v) sampled %v, want %v", c.mean, c.std, got, c.want)
		}
		if *rng != *fresh {
			t.Errorf("log-normal(%v, %v) consumed randomness", c.mean, c.std)
		}
	}
}

// profileSample returns one ProfileSample op: every gNB Table 2 layer under
// a 4-UE load and every UE-modem layer, one draw each, as a packet's UL and
// DL journeys through both stacks take them.
func profileSample(tb testing.TB) func() {
	gnb, ue := GNBTable2Profile(), UEModemProfile()
	rng := sim.NewRNG(1)
	return func() {
		var sum sim.Duration
		for _, l := range Layers {
			sum += gnb.Sample(l, 4, rng) + ue.Sample(l, 1, rng)
		}
		if sum <= 0 {
			tb.Fatalf("ProfileSample: drew a total of %v", sum)
		}
	}
}

func BenchmarkProfileSample(b *testing.B) {
	b.ReportAllocs()
	op := profileSample(b)
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestProfileSampleAllocs pins the benchmark's op at exactly 0 allocations.
func TestProfileSampleAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, profileSample(t)); n != 0 {
		t.Errorf("ProfileSample: %v allocs/op, want 0", n)
	}
}
