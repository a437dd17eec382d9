package node

import (
	"testing"

	"urllcsim/internal/nr"
	"urllcsim/internal/proc"
	"urllcsim/internal/radio"
	"urllcsim/internal/sim"
)

// fddConfig builds a full-duplex system: uniform DL grid + uniform UL grid.
func fddConfig(t *testing.T, grantFree bool) Config {
	t.Helper()
	return Config{
		Grid:         nr.UniformGrid(nr.Mu1, nr.SymDL, "FDD-DL"),
		ULGrid:       nr.UniformGrid(nr.Mu1, nr.SymUL, "FDD-UL"),
		GrantFree:    grantFree,
		GNBRadio:     radio.LowLatencySDR(),
		MarginSlots:  1,
		HARQMaxTx:    3,
		CoreLatency:  20 * sim.Microsecond,
		PayloadBytes: 32,
		Seed:         21,
	}
}

func TestFDDUplinkWorks(t *testing.T) {
	for _, gf := range []bool{false, true} {
		s, err := NewSystem(fddConfig(t, gf))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			s.OfferUL(sim.Time(int64(i)*1_000_000), 32)
		}
		s.Eng.Run(sim.Time(200_000_000))
		rs := s.Results()
		if len(rs) != 50 {
			t.Fatalf("grantFree=%v: resolved %d/50", gf, len(rs))
		}
		for _, r := range rs {
			if !r.Delivered {
				t.Fatalf("grantFree=%v: packet %d lost", gf, r.ID)
			}
		}
	}
}

func TestFDDFasterThanTDD(t *testing.T) {
	meanOf := func(cfg Config) float64 {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(5)
		for i := 0; i < 100; i++ {
			s.OfferUL(sim.Time(int64(i)*2_000_000).Add(rng.UniformDuration(0, 2*sim.Millisecond)), 32)
		}
		s.Eng.Run(sim.Time(400_000_000))
		var sum float64
		for _, r := range s.Results() {
			if !r.Delivered {
				t.Fatal("loss in clean channel")
			}
			sum += float64(r.Latency)
		}
		return sum / 100
	}
	fdd := meanOf(fddConfig(t, true))
	g, err := nr.BuildGrid(nr.CommonConfig{Mu: nr.Mu1, Pattern1: nr.PatternDDDU(nr.Mu1)}, 2, "DDDU")
	if err != nil {
		t.Fatal(err)
	}
	tddCfg := fddConfig(t, true)
	tddCfg.Grid = g
	tddCfg.ULGrid = nil
	tdd := meanOf(tddCfg)
	if fdd >= tdd {
		t.Fatalf("FDD UL mean (%v ns) not below TDD DDDU (%v ns)", fdd, tdd)
	}
}

func TestTickLeadEnablesZeroMargin(t *testing.T) {
	// With an ASIC profile, PCIe radio and a 60µs decision lead, a zero
	// slot margin must work (no radio misses) — the §5 strict design.
	kinds := make([]nr.SymbolKind, nr.SymbolsPerSlot)
	for i := range kinds {
		kinds[i] = nr.SymFlexible
	}
	g, err := nr.MiniSlotGrid(nr.MiniSlotConfig{Mu: nr.Mu2, Length: 2}, kinds, "mini")
	if err != nil {
		t.Fatal(err)
	}
	h := radio.LowLatencySDR()
	h.Bus.Jitter = proc.RTKernel()
	cfg := Config{
		Grid: g, GrantFree: true,
		GNBProfile: proc.ASICProfile(), UEProfile: proc.ASICProfile(),
		GNBRadio: h, MarginSlots: 0,
		TickLead: 60 * sim.Microsecond, HARQMaxTx: 2,
		CoreLatency: 10 * sim.Microsecond, PayloadBytes: 32, Seed: 9,
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s.OfferDL(sim.Time(int64(i)*500_000+77_000), 32)
		s.OfferUL(sim.Time(int64(i)*500_000+211_000), 32)
	}
	s.Eng.Run(sim.Time(400_000_000))
	if got := s.Counters().RadioMisses; got != 0 {
		t.Fatalf("strict design missed %d radio deadlines", got)
	}
	rs := s.Results()
	if len(rs) != 400 {
		t.Fatalf("resolved %d/400", len(rs))
	}
	// Every packet must make the URLLC deadline.
	for _, r := range rs {
		if !r.Delivered {
			t.Fatalf("packet %d lost", r.ID)
		}
		if r.Latency > 500*sim.Microsecond {
			t.Fatalf("packet %d took %v > 0.5ms", r.ID, r.Latency)
		}
	}
}

func TestTickLeadZeroIsBoundaryAligned(t *testing.T) {
	// Regression: TickLead 0 must behave exactly as before (same latencies
	// as a config without the field).
	g, err := nr.BuildGrid(nr.CommonConfig{Mu: nr.Mu1, Pattern1: nr.PatternDDDU(nr.Mu1)}, 2, "DDDU")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() Config {
		return Config{
			Grid: g, GNBRadio: radio.B210(radio.USB2()),
			MarginSlots: 1, HARQMaxTx: 3, PayloadBytes: 32, Seed: 77,
		}
	}
	run := func(cfg Config) []sim.Duration {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			s.OfferDL(sim.Time(int64(i)*2_000_000+333), 32)
		}
		s.Eng.Run(sim.Time(200_000_000))
		var out []sim.Duration
		for _, r := range s.Results() {
			out = append(out, r.Latency)
		}
		return out
	}
	a := run(mk())
	cfg := mk()
	cfg.TickLead = 0
	b := run(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("TickLead 0 changed behaviour at packet %d", i)
		}
	}
}
