package node

import (
	"testing"

	"urllcsim/internal/nr"
	"urllcsim/internal/radio"
	"urllcsim/internal/sim"
)

// A DL-only grid: uplink must fail cleanly, not hang or panic.
func TestULImpossibleOnDLOnlyGrid(t *testing.T) {
	cfg := Config{
		Grid:         nr.UniformGrid(nr.Mu1, nr.SymDL, "DL-only"),
		GrantFree:    true,
		MarginSlots:  1,
		HARQMaxTx:    1,
		PayloadBytes: 32,
		Seed:         70,
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.OfferUL(0, 32)
	s.Eng.Run(sim.Time(50_000_000))
	rs := s.Results()
	if len(rs) != 1 || rs[0].Delivered {
		t.Fatalf("UL on a DL-only grid must resolve as undeliverable: %+v", rs)
	}
}

// A UL-only grid: downlink packets sit in the RLC queue forever; the system
// must keep ticking without crashing and without resolving them.
func TestDLStarvesOnULOnlyGrid(t *testing.T) {
	cfg := Config{
		Grid:         nr.UniformGrid(nr.Mu1, nr.SymUL, "UL-only"),
		MarginSlots:  1,
		HARQMaxTx:    1,
		PayloadBytes: 32,
		Seed:         71,
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.OfferDL(0, 32)
	s.Eng.Run(sim.Time(20_000_000))
	if len(s.Results()) != 0 {
		t.Fatalf("DL resolved on a UL-only grid: %+v", s.Results())
	}
}

// Nil radio (integrated/ideal) must work end to end and be faster than the
// USB testbed.
func TestNilRadioHead(t *testing.T) {
	cfg := testbedConfig(t, true, 72)
	cfg.GNBRadio = nil
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.OfferUL(sim.Time(int64(i)*2_000_000+101), 32)
	}
	s.Eng.Run(sim.Time(100_000_000))
	var idealSum float64
	for _, r := range s.Results() {
		if !r.Delivered {
			t.Fatal("loss with ideal radio")
		}
		idealSum += float64(r.Latency)
	}
	usb := runPackets(t, testbedConfig(t, true, 72), 20, true)
	var usbSum float64
	for _, r := range usb.Results() {
		usbSum += float64(r.Latency)
	}
	if idealSum >= usbSum {
		t.Fatalf("ideal radio (%v) not faster than USB (%v)", idealSum, usbSum)
	}
}

// Zero-length and oversized payloads take the defaulting paths.
func TestPayloadDefaulting(t *testing.T) {
	cfg := testbedConfig(t, true, 73)
	cfg.PayloadBytes = 0 // defaults to 32
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A 1.5kB SDU (within one slot's ≈2.3kB capacity at MCS 10) delivers.
	s.OfferDL(0, 1500)
	// An SDU exceeding the slot capacity can never be scheduled: the
	// simulator does not split one SDU across slots (documented
	// limitation), so it starves rather than delivering.
	s.OfferDL(sim.Time(10_000_000), 4000)
	s.Eng.Run(sim.Time(100_000_000))
	rs := s.Results()
	if len(rs) != 1 || !rs[0].Delivered {
		t.Fatalf("1.5kB SDU failed: %+v", rs)
	}
}

// HARQMaxTx=1 with a lossy channel must report losses, never hang.
func TestNoRetransmissionBudget(t *testing.T) {
	cfg := testbedConfig(t, true, 74)
	cfg.HARQMaxTx = 1
	cfg.Channel = badChannel{}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.OfferUL(sim.Time(int64(i)*2_000_000), 32)
		s.OfferDL(sim.Time(int64(i)*2_000_000+500_000), 32)
	}
	s.Eng.Run(sim.Time(200_000_000))
	rs := s.Results()
	if len(rs) != 20 {
		t.Fatalf("resolved %d/20", len(rs))
	}
	for _, r := range rs {
		if r.Delivered {
			t.Fatal("delivery through a dead channel")
		}
		// Attempts counts PHY losses and radio-miss requeues; the budget
		// bounds it at HARQMaxTx for PHY losses (+2 slack for misses).
		if r.Attempts > cfg.HARQMaxTx+2 {
			t.Fatalf("packet %d used %d attempts with budget 1", r.ID, r.Attempts)
		}
	}
}

// The engine's step count must be bounded: an idle system ticks once per
// scheduling boundary, nothing more (no event leaks).
func TestNoEventLeaks(t *testing.T) {
	cfg := testbedConfig(t, false, 75)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Run(sim.Time(100_000_000)) // 100ms idle = 200 slots
	steps := s.Eng.Steps()
	if steps < 200 || steps > 220 {
		t.Fatalf("idle system fired %d events over 200 slots", steps)
	}
}

// Radio misses with a huge FIFO: every slot late, packets eventually fail
// rather than looping forever.
func TestPersistentRadioMissTerminates(t *testing.T) {
	cfg := testbedConfig(t, false, 76)
	bus := radio.USB2()
	bus.BaseUs = 5000 // 5ms submission: can never make a 0.5ms margin
	h := radio.B210(bus)
	cfg.GNBRadio = h
	cfg.HARQMaxTx = 2
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.OfferDL(0, 32)
	s.Eng.Run(sim.Time(300_000_000))
	rs := s.Results()
	if len(rs) != 1 || rs[0].Delivered {
		t.Fatalf("hopelessly late radio must fail the packet: %+v", rs)
	}
	if s.Counters().RadioMisses == 0 {
		t.Fatal("no radio misses counted")
	}
}
