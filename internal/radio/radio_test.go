package radio

import (
	"math"
	"testing"

	"urllcsim/internal/nr"
	"urllcsim/internal/sim"
)

func TestBusDeterministicLatencyLinear(t *testing.T) {
	b := USB2()
	l1 := b.DeterministicLatency(2000)
	l2 := b.DeterministicLatency(20000)
	if l2 <= l1 {
		t.Fatal("latency must grow with sample count")
	}
	// Slope must match PerSampleNs exactly.
	slope := float64(l2-l1) / 18000
	if math.Abs(slope-b.PerSampleNs) > 1e-9 {
		t.Fatalf("slope = %v ns/sample, want %v", slope, b.PerSampleNs)
	}
	if b.DeterministicLatency(-5) != b.DeterministicLatency(0) {
		t.Fatal("negative sample count mishandled")
	}
}

func TestFig5Endpoints(t *testing.T) {
	// Fig. 5 calibration: USB2 runs ≈190µs at 2k samples to ≈400µs at 20k;
	// USB3 ≈150µs to ≈250µs. Check the deterministic fits land in range.
	u2lo := USB2().DeterministicLatency(2000).Seconds() * 1e6
	u2hi := USB2().DeterministicLatency(20000).Seconds() * 1e6
	u3lo := USB3().DeterministicLatency(2000).Seconds() * 1e6
	u3hi := USB3().DeterministicLatency(20000).Seconds() * 1e6
	within := func(v, lo, hi float64) bool { return v >= lo && v <= hi }
	if !within(u2lo, 170, 215) || !within(u2hi, 370, 430) {
		t.Fatalf("USB2 fit out of Fig.5 range: %.0f / %.0f µs", u2lo, u2hi)
	}
	if !within(u3lo, 135, 175) || !within(u3hi, 225, 275) {
		t.Fatalf("USB3 fit out of Fig.5 range: %.0f / %.0f µs", u3lo, u3hi)
	}
}

func TestUSB3BelowUSB2Everywhere(t *testing.T) {
	u2, u3 := USB2(), USB3()
	for n := 0; n <= 30000; n += 500 {
		if u3.DeterministicLatency(n) >= u2.DeterministicLatency(n) {
			t.Fatalf("USB3 not below USB2 at %d samples", n)
		}
	}
}

func TestBusOrdering(t *testing.T) {
	// PCIe < USB3 < USB2 at a typical slot's worth of samples.
	const n = 11520
	pcie := PCIe().DeterministicLatency(n)
	u3 := USB3().DeterministicLatency(n)
	u2 := USB2().DeterministicLatency(n)
	if !(pcie < u3 && u3 < u2) {
		t.Fatalf("bus ordering violated: %v %v %v", pcie, u3, u2)
	}
}

func TestSubmitLatencySpikes(t *testing.T) {
	rng := sim.NewRNG(1)
	b := USB2()
	base := b.DeterministicLatency(10000)
	spikes := 0
	const n = 20000
	for i := 0; i < n; i++ {
		lat := b.SubmitLatency(10000, rng)
		if lat < base {
			t.Fatal("jitter made latency negative relative to base")
		}
		if lat > base+35*sim.Microsecond {
			spikes++
		}
	}
	frac := float64(spikes) / n
	// Non-RT spike probability is 3.5%; allow sampling slack.
	if frac < 0.02 || frac > 0.06 {
		t.Fatalf("spike fraction %v, want ≈0.035", frac)
	}
}

func TestB210MatchesPaper500us(t *testing.T) {
	// §7: "the RH in use introduces around 500µs latency" at µ1. Our B210
	// preset must land in 400–600µs one-way.
	h := B210(USB2())
	lat := h.MeanOneWay(nr.Mu1)
	if lat < 400*sim.Microsecond || lat > 600*sim.Microsecond {
		t.Fatalf("B210 one-way = %v, want ≈500µs", lat)
	}
}

func TestSamplesPerSlot(t *testing.T) {
	h := B210(USB2())
	// 23.04 MS/s × 0.5 ms = 11520 samples.
	if got := h.SamplesPerSlot(nr.Mu1); got != 11520 {
		t.Fatalf("samples per µ1 slot = %d, want 11520", got)
	}
	if got := h.SamplesPerSlot(nr.Mu2); got != 5760 {
		t.Fatalf("samples per µ2 slot = %d, want 5760", got)
	}
	if h.SamplesPerDuration(0) != 0 {
		t.Fatal("zero duration must give zero samples")
	}
}

func TestLowLatencySDRBeatsB210(t *testing.T) {
	b210 := B210(USB2())
	x := LowLatencySDR()
	if x.MeanOneWay(nr.Mu1) >= b210.MeanOneWay(nr.Mu1)/4 {
		t.Fatalf("PCIe SDR (%v) not ≪ B210 (%v)", x.MeanOneWay(nr.Mu1), b210.MeanOneWay(nr.Mu1))
	}
}

func TestRadioLatencyBottleneckClaim(t *testing.T) {
	// §4: "if the radio latency is 0.3ms, halving the slot duration from
	// 0.25ms might not reduce latency". Check the premise holds for the
	// B210: its µ2 one-way latency exceeds a µ2 slot.
	h := B210(USB2())
	if h.MeanOneWay(nr.Mu2) <= nr.Mu2.SlotDuration() {
		t.Fatalf("B210 µ2 latency %v does not exceed one slot — bottleneck premise broken", h.MeanOneWay(nr.Mu2))
	}
	// Whereas the PCIe SDR fits within a µ2 slot.
	if LowLatencySDR().MeanOneWay(nr.Mu2) >= nr.Mu2.SlotDuration() {
		t.Fatal("PCIe SDR must fit within one µ2 slot")
	}
}

func TestSubmissionSweep(t *testing.T) {
	rng := sim.NewRNG(4)
	pts := SubmissionSweep(USB3(), 2000, 20000, 3000, 5, rng)
	if len(pts) != 7*5 {
		t.Fatalf("sweep produced %d points, want 35", len(pts))
	}
	for _, p := range pts {
		if p.Samples < 2000 || p.Samples > 20000 {
			t.Fatalf("sample count %d out of sweep range", p.Samples)
		}
		if p.LatencyUs <= 0 {
			t.Fatal("non-positive latency in sweep")
		}
	}
	// The last batch (20000 samples) must on average exceed the first.
	var first, last float64
	for i := 0; i < 5; i++ {
		first += pts[i].LatencyUs
		last += pts[len(pts)-1-i].LatencyUs
	}
	if last <= first {
		t.Fatal("sweep not increasing on average")
	}
}
