package channel

import (
	"math"
	"testing"

	"urllcsim/internal/sim"
)

func TestPathLossGrowsWithDistanceAndFrequency(t *testing.T) {
	for _, env := range []Environment{UMa, UMi, InH} {
		prev := 0.0
		for _, d := range []float64{1, 10, 50, 200, 1000} {
			pl, err := PathLossDB(env, d, 3.7)
			if err != nil {
				t.Fatal(err)
			}
			if pl <= prev {
				t.Fatalf("%v path loss not growing at %vm", env, d)
			}
			prev = pl
		}
		lo, _ := PathLossDB(env, 100, 3.7)
		hi, _ := PathLossDB(env, 100, 28)
		// 20·log10(28/3.7) ≈ 17.6 dB.
		if math.Abs((hi-lo)-17.58) > 0.1 {
			t.Fatalf("%v frequency term = %v dB, want ≈17.6", env, hi-lo)
		}
	}
}

func TestPathLossKnownValue(t *testing.T) {
	// InH at 10m, 3.7GHz: 32.4 + 17.3 + 20·log10(3.7) = 61.05 dB.
	pl, err := PathLossDB(InH, 10, 3.7)
	if err != nil {
		t.Fatal(err)
	}
	want := 32.4 + 17.3 + 20*math.Log10(3.7)
	if math.Abs(pl-want) > 1e-9 {
		t.Fatalf("InH@10m = %v, want %v", pl, want)
	}
}

func TestPathLossErrors(t *testing.T) {
	if _, err := PathLossDB(UMa, 0.5, 3.7); err == nil {
		t.Fatal("sub-metre distance accepted")
	}
	if _, err := PathLossDB(UMa, 10, 0); err == nil {
		t.Fatal("zero frequency accepted")
	}
	if _, err := PathLossDB(Environment(9), 10, 3.7); err == nil {
		t.Fatal("bogus environment accepted")
	}
}

func TestIndoorLessLossyThanUrban(t *testing.T) {
	in, _ := PathLossDB(InH, 100, 3.7)
	um, _ := PathLossDB(UMa, 100, 3.7)
	if in >= um {
		t.Fatalf("InH (%v) not below UMa (%v) at 100m", in, um)
	}
}

func TestLinkBudgetSNR(t *testing.T) {
	lb := PrivateFactoryBudget()
	near, err := lb.SNRAt(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	far, err := lb.SNRAt(150, nil)
	if err != nil {
		t.Fatal(err)
	}
	if near <= far {
		t.Fatal("SNR must fall with distance")
	}
	// A factory cell must be comfortably usable at 30m (16QAM needs ≈15dB).
	mid, _ := lb.SNRAt(30, nil)
	if mid < 15 {
		t.Fatalf("factory SNR at 30m = %vdB — budget miscalibrated", mid)
	}
}

func TestLinkBudgetShadowing(t *testing.T) {
	lb := PrivateFactoryBudget()
	rng := sim.NewRNG(5)
	base, _ := lb.SNRAt(30, nil)
	var sum, sumsq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v, err := lb.SNRAt(30, rng)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-base) > 0.1 {
		t.Fatalf("shadowed mean %v vs median %v", mean, base)
	}
	if math.Abs(std-lb.ShadowStdDB) > 0.1 {
		t.Fatalf("shadow std %v, want %v", std, lb.ShadowStdDB)
	}
}
