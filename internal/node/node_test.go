package node

import (
	"runtime"
	"slices"
	"testing"

	"urllcsim/internal/channel"
	"urllcsim/internal/core"
	"urllcsim/internal/nr"
	"urllcsim/internal/obs"
	"urllcsim/internal/proc"
	"urllcsim/internal/radio"
	"urllcsim/internal/sched"
	"urllcsim/internal/sim"
)

// testbedConfig mirrors the paper's §7 demonstration: DDDU at µ1, n78-ish
// carrier, B210 over USB2, grant-based or grant-free UL.
func testbedConfig(t *testing.T, grantFree bool, seed uint64) Config {
	t.Helper()
	g, err := nr.BuildGrid(nr.CommonConfig{Mu: nr.Mu1, Pattern1: nr.PatternDDDU(nr.Mu1)}, 2, "DDDU")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Grid:         g,
		GrantFree:    grantFree,
		GNBRadio:     radio.B210(radio.USB2()),
		Channel:      channel.AWGN{SNR: 25},
		MarginSlots:  1,
		HARQMaxTx:    3,
		CoreLatency:  30 * sim.Microsecond,
		PayloadBytes: 32,
		Seed:         seed,
	}
}

func runPackets(t *testing.T, cfg Config, n int, uplink bool) *System {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	period := cfg.Grid.Period()
	rng := sim.NewRNG(cfg.Seed + 7)
	for i := 0; i < n; i++ {
		at := sim.Time(int64(i) * int64(period)).Add(rng.UniformDuration(0, period))
		if uplink {
			s.OfferUL(at, cfg.PayloadBytes)
		} else {
			s.OfferDL(at, cfg.PayloadBytes)
		}
	}
	s.Eng.Run(sim.Time(int64(n+40) * int64(period)))
	return s
}

func latencies(t *testing.T, s *System, wantN int) []sim.Duration {
	t.Helper()
	rs := s.Results()
	if len(rs) != wantN {
		t.Fatalf("resolved %d packets, want %d", len(rs), wantN)
	}
	var out []sim.Duration
	for _, r := range rs {
		if !r.Delivered {
			t.Fatalf("packet %d not delivered (attempts %d)", r.ID, r.Attempts)
		}
		out = append(out, r.Latency)
	}
	return out
}

func mean(ls []sim.Duration) float64 {
	var sum float64
	for _, l := range ls {
		sum += float64(l)
	}
	return sum / float64(len(ls)) / 1e6 // ms
}

// A negative UE id is refused at the offer, with the same message in both
// access modes.
func TestOfferULNegativeUEPanics(t *testing.T) {
	for _, grantFree := range []bool{false, true} {
		s, err := NewSystem(testbedConfig(t, grantFree, 1))
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if p := recover(); p != "node: negative UE id -1" {
					t.Errorf("grant-free %v: recovered %v, want the negative-id panic", grantFree, p)
				}
			}()
			s.OfferULAs(-1, 0, 32)
		}()
	}
}

func TestDLDeliversAllPackets(t *testing.T) {
	s := runPackets(t, testbedConfig(t, false, 1), 200, false)
	ls := latencies(t, s, 200)
	m := mean(ls)
	// Fig. 6: DL one-way concentrates between ≈1 and 3 ms on this testbed.
	if m < 0.8 || m > 3.5 {
		t.Fatalf("DL mean latency %.2fms, want ≈1–3ms", m)
	}
}

func TestULGrantBasedSlower(t *testing.T) {
	gb := runPackets(t, testbedConfig(t, false, 2), 150, true)
	gf := runPackets(t, testbedConfig(t, true, 2), 150, true)
	mGB := mean(latencies(t, gb, 150))
	mGF := mean(latencies(t, gf, 150))
	// Fig. 6a vs 6b: the SR/grant handshake costs roughly one TDD period
	// (2 ms at µ1 DDDU).
	if mGB <= mGF+1.0 {
		t.Fatalf("grant-based %.2fms not ≈2ms above grant-free %.2fms", mGB, mGF)
	}
	if mGB-mGF > 3.5 {
		t.Fatalf("handshake cost %.2fms implausibly high", mGB-mGF)
	}
	if gb.Counters().SRsSent == 0 || gb.Counters().GrantsIssued == 0 {
		t.Fatal("grant-based run sent no SRs/grants")
	}
	if gf.Counters().SRsSent != 0 {
		t.Fatal("grant-free run sent SRs")
	}
}

func TestULSlowerThanDL(t *testing.T) {
	// §7: "In the UL channel, the latency is much bigger than the DL."
	dl := mean(latencies(t, runPackets(t, testbedConfig(t, false, 3), 150, false), 150))
	ul := mean(latencies(t, runPackets(t, testbedConfig(t, false, 3), 150, true), 150))
	if ul <= dl {
		t.Fatalf("UL %.2fms not above DL %.2fms", ul, dl)
	}
}

func TestTable2ShapeEmerges(t *testing.T) {
	s := runPackets(t, testbedConfig(t, false, 4), 400, false)
	latencies(t, s, 400)
	stats := s.LayerStats()
	rlcq := stats["RLC-q"]
	if rlcq.N() == 0 {
		t.Fatal("RLC-q never measured")
	}
	// Table 2's shape: queueing dominates every processing layer by an
	// order of magnitude (484µs vs 4–55µs).
	for _, layer := range []string{"SDAP", "PDCP", "RLC", "MAC", "PHY"} {
		if stats[layer].N() == 0 {
			t.Fatalf("%s never measured", layer)
		}
		if rlcq.Mean() < 4*stats[layer].Mean() {
			t.Fatalf("RLC-q mean %.1fµs does not dominate %s %.1fµs",
				rlcq.Mean(), layer, stats[layer].Mean())
		}
	}
	// And the configured means survive the instrumentation within noise.
	if m := stats["MAC"].Mean(); m < 40 || m > 75 {
		t.Fatalf("MAC mean %.1fµs, configured 55.21µs", m)
	}
	// RLC-q in the hundreds of microseconds, as measured by the paper.
	if rlcq.Mean() < 150 || rlcq.Mean() > 900 {
		t.Fatalf("RLC-q mean %.1fµs, want hundreds of µs", rlcq.Mean())
	}
}

func TestRadioMissWithZeroMargin(t *testing.T) {
	cfg := testbedConfig(t, false, 5)
	cfg.MarginSlots = 0
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.OfferDL(sim.Time(int64(i)*2_000_000), 32)
	}
	s.Eng.Run(sim.Time(200_000_000))
	if s.Counters().RadioMisses == 0 {
		t.Fatal("zero margin produced no radio misses — §4's interdependency not modelled")
	}
}

func TestMarginOneMostlySucceeds(t *testing.T) {
	s := runPackets(t, testbedConfig(t, false, 6), 100, false)
	c := s.Counters()
	// With one slot (500µs) of margin and ≈440µs of processing+submission,
	// only jitter spikes cause misses: a small minority.
	if c.RadioMisses > 25 {
		t.Fatalf("margin 1 missed %d/100 — calibration off", c.RadioMisses)
	}
}

func TestPHYLossesOnBadChannel(t *testing.T) {
	cfg := testbedConfig(t, true, 7)
	cfg.Channel = channel.AWGN{SNR: 10} // 16QAM at 10 dB: BLER ≈ 0.4
	cfg.HARQMaxTx = 4
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.OfferUL(sim.Time(int64(i)*2_000_000), 32)
	}
	s.Eng.Run(sim.Time(500_000_000))
	if s.Counters().PHYLosses == 0 {
		t.Fatal("bad channel produced no PHY losses")
	}
	// HARQ must still deliver some packets (multiple attempts).
	delivered, retried := 0, 0
	for _, r := range s.Results() {
		if r.Delivered {
			delivered++
			if r.Attempts > 1 {
				retried++
			}
		}
	}
	if delivered == 0 {
		t.Fatal("HARQ never recovered a packet")
	}
	if retried == 0 {
		t.Fatal("no packet needed more than one attempt at 4dB")
	}
}

func TestBreakdownCoversJourney(t *testing.T) {
	cfg := testbedConfig(t, false, 8)
	rec := obs.NewRecorder()
	cfg.Obs = rec
	s := runPackets(t, cfg, 30, true)
	for _, r := range s.Results() {
		if n := len(rec.PacketSpans(r.ID)); n < 4 {
			t.Fatalf("UL journey has only %d spans", n)
		}
		if r.BySource.Total() == 0 {
			t.Fatal("source tally empty")
		}
	}
}

func TestProtocolDominatesGrantBasedUL(t *testing.T) {
	// §4: "the protocol latency is the most significant". For grant-based
	// UL on DDDU this must hold for the typical packet.
	s := runPackets(t, testbedConfig(t, false, 9), 100, true)
	protoDominant := 0
	for _, r := range s.Results() {
		if r.BySource.Dominant() == core.Protocol {
			protoDominant++
		}
	}
	if protoDominant < 80 {
		t.Fatalf("protocol dominant in only %d/100 journeys", protoDominant)
	}
}

// TestTallyMatchesSpans pins the one-representation contract: a packet's
// per-source tally is exactly the per-source sum of the spans recorded for
// it, in both directions and on every path that re-enters the journey
// (HARQ retries on a lossy channel, radio-miss requeues, grant-free
// contention, FDD).
func TestTallyMatchesSpans(t *testing.T) {
	lowSNR := func(seed uint64) Config {
		cfg := testbedConfig(t, false, seed)
		cfg.Channel = channel.AWGN{SNR: 10} // 16QAM at 10 dB: BLER ≈ 0.4
		return cfg
	}
	gfShared := testbedConfig(t, true, 12)
	gfShared.NUEs, gfShared.CGUnits = 8, 2
	cases := []struct {
		name string
		cfg  Config
	}{
		{"dynamic", testbedConfig(t, false, 11)},
		{"grantfree", testbedConfig(t, true, 11)},
		{"grantfree-shared", gfShared},
		{"fdd", fddConfig(t, false)},
		{"fdd-grantfree", fddConfig(t, true)},
		{"low-snr", lowSNR(13)},
		{"low-snr-grantfree", func() Config { c := lowSNR(14); c.GrantFree = true; return c }()},
	}
	var retried, misses, collisions int
	for _, c := range cases {
		for _, uplink := range []bool{true, false} {
			cfg := c.cfg
			rec := obs.NewRecorder()
			rec.SetSampling(1, cfg.Seed)
			cfg.Obs = rec
			s := runPackets(t, cfg, 150, uplink)
			rs := s.Results()
			if len(rs) != 150 {
				t.Fatalf("%s uplink=%v: resolved %d/150", c.name, uplink, len(rs))
			}
			for _, r := range rs {
				var want core.Tally
				for _, sp := range rec.PacketSpans(r.ID) {
					want.Add(sp.Source, sp.Dur)
				}
				if r.BySource != want {
					t.Fatalf("%s uplink=%v packet %d: tally %v, spans sum to %v",
						c.name, uplink, r.ID, r.BySource, want)
				}
				if r.Attempts > 1 {
					retried++
				}
			}
			misses += s.Counters().RadioMisses
			collisions += s.Counters().CGCollisions
		}
	}
	if retried == 0 || misses == 0 || collisions == 0 {
		t.Fatalf("coverage: %d retried packets, %d radio misses, %d CG collisions; want all > 0",
			retried, misses, collisions)
	}
}

// allocsPerPkt runs offer (which builds a system and offers its traffic)
// and the engine to the horizon five times, and returns the heap
// allocations and bytes per offered packet. Every packet must resolve. It
// counts as testing.AllocsPerRun does — one warm-up run, GOMAXPROCS 1,
// whole allocations per run — and counts bytes the same way.
func allocsPerPkt(t *testing.T, horizon sim.Time, offer func() (*System, int)) (allocs, bytes float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race runtime allocates too; the exact pin runs without -race (make allocs)")
	}
	const runs = 5
	var resolved, offered int
	run := func() {
		var s *System
		s, offered = offer()
		s.Eng.Run(horizon)
		resolved = len(s.Results())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if resolved != offered {
		t.Fatalf("resolved %d/%d packets", resolved, offered)
	}
	allocs = float64((after.Mallocs-before.Mallocs)/runs) / float64(offered)
	bytes = float64((after.TotalAlloc-before.TotalAlloc)/runs) / float64(offered)
	t.Logf("%.4f allocs/pkt, %.2f B/pkt", allocs, bytes)
	return allocs, bytes
}

// TestPacketAllocs pins the per-packet allocation cost of the simulator
// with observability off: building a testbed system, offering 100 UL and
// 100 DL packets and running it to completion. A packet allocates nothing
// of its own: its context is recycled through a pool that carves a chunk of
// ctxChunk only when every context is in flight, it is its own event
// handler, and its bytes are stamped into System scratch; the codecs,
// events, PHY copies and scheduler plans reuse scratch. The rest is the
// system's set-up.
func TestPacketAllocs(t *testing.T) {
	cfg := testbedConfig(t, false, 5)
	period := cfg.Grid.Period()
	const n = 100
	perPkt, _ := allocsPerPkt(t, sim.Time(int64(n+40)*int64(period)), func() (*System, int) {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			at := sim.Time(int64(i) * int64(period))
			s.OfferUL(at, cfg.PayloadBytes)
			s.OfferDL(at.Add(period/2), cfg.PayloadBytes)
		}
		return s, 2 * n
	})
	// Measured: 0.5900 allocs/pkt, identical on every run for this seed
	// (0.6850 while every packet's context was carved anew, 0.6900 while every run's arrival lane allocated its block, 3.575 while each packet allocated its payload, its context and the
	// context's bound handler, 3.58 before the scheduler's UL bookings moved
	// from a map into a slice, 3.62 before the Table 2 accumulators moved
	// from a map into the System).
	const bound = 0.5900
	if perPkt > bound {
		t.Fatalf("%.4f allocs/pkt, want ≤ %.4f", perPkt, bound)
	}
}

// TestTestbedPoolAllocs pins the engine's node pool on a 2×10⁴-packet
// testbed run with every packet offered up front. Offers wait in the
// arrival lane, not in wheel nodes, so the pool holds only the events in
// flight: one 64-node slab (5,120 nodes for 5,000 packets before the lane),
// and no more however long the run.
func TestTestbedPoolAllocs(t *testing.T) {
	cfg := testbedConfig(t, false, 5)
	period := cfg.Grid.Period()
	const n = 10_000
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		at := sim.Time(int64(i) * int64(period))
		s.OfferUL(at, cfg.PayloadBytes)
		s.OfferDL(at.Add(period/2), cfg.PayloadBytes)
	}
	if s.Eng.Pending() < 2*n {
		t.Fatalf("Pending = %d after offering, want ≥ %d (every offer queued)", s.Eng.Pending(), 2*n)
	}
	s.Eng.Run(sim.Time(int64(n+40) * int64(period)))
	if got := len(s.Results()); got != 2*n {
		t.Fatalf("%d of %d packets resolved", got, 2*n)
	}
	if got := s.Eng.PoolAllocs(); got > 64 {
		t.Fatalf("PoolAllocs = %d after %d packets, want ≤ 64 (one slab)", got, 2*n)
	}
	if len(s.dlItems) != 0 {
		t.Fatalf("dlItems holds %d packets after the run, want 0", len(s.dlItems))
	}
}

// cellAllocsPerPkt runs a 200-UE cell on a DU grid with round-robin
// scheduling, two UL packets per UE, with a recorder from rec mounted (rec
// is called for every run; nil for none), and returns allocsPerPkt's counts.
func cellAllocsPerPkt(t *testing.T, rec func() *obs.Recorder) (allocs, bytes float64) {
	g, err := nr.BuildGrid(nr.CommonConfig{Mu: nr.Mu1, Pattern1: nr.PatternDU(nr.Mu1)}, 2, "DU")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Grid: g, Fairness: sched.FairRoundRobin,
		Channel: channel.AWGN{SNR: 25}, MarginSlots: 1,
		HARQMaxTx: 3, CoreLatency: 30 * sim.Microsecond, NUEs: 200, PayloadBytes: 32, Seed: 3,
	}
	const ues, cycles = 200, 2
	cycle := 20 * sim.Millisecond
	return allocsPerPkt(t, sim.Time(cycles*cycle+200*sim.Millisecond), func() (*System, int) {
		cfg.Obs = rec()
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < cycles; c++ {
			for ue := 0; ue < ues; ue++ {
				at := sim.Time(int64(c)*int64(cycle) + int64(ue)*int64(cycle)/ues + 137*int64(sim.Microsecond))
				s.OfferULAs(ue, at, cfg.PayloadBytes)
			}
		}
		return s, ues * cycles
	})
}

// TestCellPacketAllocs is TestPacketAllocs for a many-UE cell: 200 UEs, two
// UL packets each, so the scheduler's SR rounds and the shared entities'
// scratch carry the load.
func TestCellPacketAllocs(t *testing.T) {
	perPkt, _ := cellAllocsPerPkt(t, func() *obs.Recorder { return nil })
	// Measured: 0.3900 allocs/pkt, identical on every run for this seed
	// (0.4775 while every packet's context was carved anew, 0.4825 while every run's arrival lane allocated its blocks, 3.3600 while each packet allocated its payload, its context and the
	// context's bound handler, 3.3625 before the scheduler's UL bookings
	// moved from a map into a slice, 3.3825 before the Table 2 accumulators
	// moved from a map into the System).
	const bound = 0.3900
	if perPkt > bound {
		t.Fatalf("%.4f allocs/pkt, want ≤ %.4f", perPkt, bound)
	}
}

// TestCellTracedPacketAllocs pins the observer tax on the same cell: each
// run mounts a fresh recorder with spans, the per-UE labeled families and
// the slot ledger, so the counts include building the recorder and every
// per-UE histogram's first fill, as a traced run pays them.
func TestCellTracedPacketAllocs(t *testing.T) {
	perPkt, bytesPerPkt := cellAllocsPerPkt(t, func() *obs.Recorder {
		rec := obs.NewRecorder()
		rec.EnableSlotLedger()
		return rec
	})
	// Measured: 1.1425 allocs/pkt and 3159.50 B/pkt in most runs (1.2325
	// and 3291.40 while every packet's context was carved anew, 1.2350
	// and 3332.32 while every run's arrival lane allocated its blocks, 3.2800
	// and 3390.44 while each labeled-family row and each timing's histogram
	// was its own allocation, 6.1550 and 3472.25 while each packet allocated its payload, its
	// context and the context's bound handler, 6.1600 and 3472.42 before
	// the scheduler's UL bookings moved from a map into a slice, 6.1800 and
	// 3472.58 before the Table 2 accumulators moved from a map into the
	// System, 6.3800 and 4962.78 before timings dropped the fixed-bin
	// histogram and kept their buckets in pages, 6.3825 and 7114.86 before
	// the recorder logged in blocks, 7.4475 and 8304.6 before per-UE
	// histograms started sparse, 6.3850 and 7136.74 before offers waited in
	// the arrival lane). Every map draws its own hash seed, so in some runs
	// a map grows a table more or less: 1.1400 to 1.1450 allocs/pkt seen.
	// The bounds allow 5 allocations and 1 KB per run above the least of
	// them; one allocation more per packet is 400 per run.
	const bound, bytesBound = 1.1525, 3162.0
	if perPkt > bound || bytesPerPkt > bytesBound {
		t.Fatalf("%.4f allocs/pkt and %.2f B/pkt, want ≤ %.4f and ≤ %.2f", perPkt, bytesPerPkt, bound, bytesBound)
	}
}

func TestRTKernelReducesMisses(t *testing.T) {
	mk := func(rt bool, seed uint64) int {
		cfg := testbedConfig(t, false, seed)
		if rt {
			h := radio.B210(radio.USB2())
			h.Bus.Jitter = proc.RTKernel()
			cfg.GNBRadio = h
		}
		// Shrink the margin so jitter matters more.
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			s.OfferDL(sim.Time(int64(i)*2_000_000+123), 32)
		}
		s.Eng.Run(sim.Time(800_000_000))
		return s.Counters().RadioMisses
	}
	nonRT := mk(false, 10)
	rt := mk(true, 10)
	if rt >= nonRT && nonRT > 0 {
		t.Fatalf("RT kernel (%d misses) not below non-RT (%d)", rt, nonRT)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Fatal("nil grid accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []sim.Duration {
		return latencies(t, runPackets(t, testbedConfig(t, false, 12), 50, false), 50)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at packet %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// A DL transport block carrying three SDUs, whose first fails the UE's PDCP
// integrity check, loses that packet alone: the other two are delivered,
// each checked against its own bytes. Pairing the surviving SDUs with the
// block's packets by index would instead credit the second SDU to the first
// packet and lose the third. The packets' stamped bytes differ, so this
// also catches transmitDL handing the MAC PDUs that alias the RLC entity's
// reused scratch.
func TestDLDropDoesNotShiftDelivery(t *testing.T) {
	cfg := testbedConfig(t, false, 21)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 3)
	for i := range ids {
		ids[i] = s.OfferDL(0, cfg.PayloadBytes)
	}
	// Step until all three wait in the gNB's RLC queue.
	for s.gnbRLC.QueueLen() < 3 {
		if !s.Eng.Step() || s.Eng.Now() > sim.Time(cfg.Grid.Period()) {
			t.Fatalf("%d of 3 packets queued by %v", s.gnbRLC.QueueLen(), s.Eng.Now())
		}
	}
	// Carry them in one block, now, and corrupt the first SDU on air: the
	// MAC subheader is R/F/LCID plus an 8-bit L, so the first subPDU's last
	// byte, the end of its PDCP MAC-I, sits at 2+L-1.
	tb := s.newTB(s.Eng.Now())
	for _, q := range s.gnbRLC.DequeueIDs(ids) {
		tb.ids = append(tb.ids, q.ID)
	}
	s.transmitDL(tb)
	if tb.lost || len(tb.segs) != 3 {
		t.Fatalf("block lost=%v with %d SDUs, want 3 on air", tb.lost, len(tb.segs))
	}
	inBlock := slices.Clone(tb.ids) // queue order, which processing jitter sets
	tb.rx[2+int(tb.rx[1])-1] ^= 0xFF
	s.Eng.Run(s.Eng.Now().Add(cfg.Grid.Period()))

	delivered := map[int]bool{}
	for _, r := range s.Results() {
		delivered[r.ID] = r.Delivered
	}
	for i, want := range []bool{false, true, true} {
		got, ok := delivered[inBlock[i]]
		if !ok || got != want {
			t.Errorf("SDU %d of the block: resolved=%v delivered=%v, want delivered=%v", i+1, ok, got, want)
		}
	}
}
