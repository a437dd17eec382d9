package node

import (
	"testing"

	"urllcsim/internal/channel"
	"urllcsim/internal/sim"
)

func TestFullPHYDeliversRealBlocks(t *testing.T) {
	cfg := testbedConfig(t, true, 51)
	cfg.FullPHY = true
	cfg.Channel = channel.AWGN{SNR: 12} // solid for 16QAM + K=7 coding
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.OfferUL(sim.Time(int64(i)*2_000_000+101), make([]byte, 32))
		s.OfferDL(sim.Time(int64(i)*2_000_000+911_000), make([]byte, 32))
	}
	s.Eng.Run(sim.Time(100_000_000))
	rs := s.Results()
	if len(rs) != 20 {
		t.Fatalf("resolved %d/20", len(rs))
	}
	for _, r := range rs {
		if !r.Delivered {
			t.Fatalf("full-PHY packet %d lost at 12dB", r.ID)
		}
	}
}

func TestFullPHYLosesBlocksInNoise(t *testing.T) {
	cfg := testbedConfig(t, true, 52)
	cfg.FullPHY = true
	cfg.HARQMaxTx = 1
	cfg.Channel = channel.AWGN{SNR: 2} // 16QAM at 2dB: Viterbi drowns
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.OfferUL(sim.Time(int64(i)*2_000_000), make([]byte, 32))
	}
	s.Eng.Run(sim.Time(100_000_000))
	if s.Counters().PHYLosses == 0 {
		t.Fatal("full PHY decoded everything at 2dB — CRC layer not engaged")
	}
}

func TestFullPHYAgreesWithAnalyticOnDelivery(t *testing.T) {
	// At a clean operating point the two PHY models must agree that
	// everything is delivered, with identical protocol-level latencies
	// (PHY modelling must not perturb timing).
	lat := func(full bool) []sim.Duration {
		cfg := testbedConfig(t, true, 53)
		cfg.FullPHY = full
		cfg.Channel = channel.AWGN{SNR: 25}
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			s.OfferDL(sim.Time(int64(i)*2_000_000+500_123), make([]byte, 32))
		}
		s.Eng.Run(sim.Time(60_000_000))
		var out []sim.Duration
		for _, r := range s.Results() {
			if !r.Delivered {
				t.Fatal("loss in clean channel")
			}
			out = append(out, r.Latency)
		}
		return out
	}
	a, f := lat(false), lat(true)
	if len(a) != len(f) {
		t.Fatalf("different delivery counts: %d vs %d", len(a), len(f))
	}
	for i := range a {
		if a[i] != f[i] {
			t.Fatalf("latency %d differs between PHY models: %v vs %v", i, a[i], f[i])
		}
	}
}
