package nr

import (
	"testing"

	"urllcsim/internal/sim"
)

func TestNumerologySCS(t *testing.T) {
	want := map[Numerology]int{Mu0: 15, Mu1: 30, Mu2: 60, Mu3: 120, Mu4: 240, Mu5: 480, Mu6: 960}
	for mu, scs := range want {
		if got := mu.SCSkHz(); got != scs {
			t.Errorf("%v SCS = %d, want %d", mu, got, scs)
		}
	}
}

func TestNumerologySlotDuration(t *testing.T) {
	cases := []struct {
		mu   Numerology
		want sim.Duration
	}{
		{Mu0, sim.Millisecond},
		{Mu1, 500 * sim.Microsecond},
		{Mu2, 250 * sim.Microsecond},
		{Mu3, 125 * sim.Microsecond},
		{Mu6, 15625 * sim.Nanosecond}, // the paper's "as low as 15.625 µs"
	}
	for _, c := range cases {
		if got := c.mu.SlotDuration(); got != c.want {
			t.Errorf("%v slot duration = %v, want %v", c.mu, got, c.want)
		}
	}
}

func TestNumerologyFrequencyRanges(t *testing.T) {
	// TR 38.913: µ0–µ2 FR1; µ2–µ6 FR2. µ2 lives in both.
	if !Mu0.SupportedIn(FR1) || Mu0.SupportedIn(FR2) {
		t.Error("µ0 must be FR1-only")
	}
	if !Mu2.SupportedIn(FR1) || !Mu2.SupportedIn(FR2) {
		t.Error("µ2 must be supported in both ranges")
	}
	if Mu3.SupportedIn(FR1) || !Mu3.SupportedIn(FR2) {
		t.Error("µ3 must be FR2-only")
	}
	if Numerology(9).Valid() {
		t.Error("µ9 must be invalid")
	}
}

func TestPaperMinimumFR1Slot(t *testing.T) {
	// §1: "5G specifications limit the minimum time slot duration to 0.25ms"
	// in sub-6 GHz — the shortest FR1 slot must be µ2's 0.25 ms.
	min := sim.Duration(1 << 62)
	for mu := Mu0; mu <= Mu6; mu++ {
		if mu.SupportedIn(FR1) && mu.SlotDuration() < min {
			min = mu.SlotDuration()
		}
	}
	if min != 250*sim.Microsecond {
		t.Fatalf("min FR1 slot = %v, want 0.25ms", min)
	}
}

func TestNumerologyString(t *testing.T) {
	if Mu2.String() != "µ2(60kHz)" {
		t.Fatalf("µ2 string = %q", Mu2.String())
	}
}
