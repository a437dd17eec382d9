package channel

import (
	"math"
	"testing"

	"urllcsim/internal/fec"
	"urllcsim/internal/modulation"
	"urllcsim/internal/sim"
)

func TestQFunction(t *testing.T) {
	if got := Q(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Q(0) = %v", got)
	}
	if got := Q(1.96); math.Abs(got-0.025) > 1e-3 {
		t.Fatalf("Q(1.96) = %v, want ≈0.025", got)
	}
	if Q(10) > 1e-20 {
		t.Fatalf("Q(10) = %v, want ≈0", Q(10))
	}
	if Q(-10) < 1-1e-20 {
		t.Fatal("Q(-10) must approach 1")
	}
}

func TestDBConversions(t *testing.T) {
	if got := DBToLinear(10); math.Abs(got-10) > 1e-12 {
		t.Fatalf("10dB = %v", got)
	}
	if got := DBToLinear(-3); math.Abs(got-0.5011872336272722) > 1e-15 {
		t.Fatalf("-3dB = %v", got)
	}
	if got := DBToLinear(0); got != 1 {
		t.Fatalf("0dB = %v", got)
	}
}

// qpskMap is the TS 38.211 §5.1.3 QPSK mapper, the reference the Monte-Carlo
// checks below modulate with: each bit pair maps to ((1−2b₀)+j(1−2b₁))/√2.
func qpskMap(bs []fec.Bit) []complex128 {
	syms := make([]complex128, len(bs)/2)
	for k := range syms {
		syms[k] = complex(1-2*float64(bs[2*k]), 1-2*float64(bs[2*k+1])) / math.Sqrt2
	}
	return syms
}

// qpskDecide is QPSK's hard decision: the sign of each axis.
func qpskDecide(syms []complex128) []fec.Bit {
	bs := make([]fec.Bit, 0, 2*len(syms))
	for _, y := range syms {
		var b0, b1 fec.Bit
		if real(y) < 0 {
			b0 = 1
		}
		if imag(y) < 0 {
			b1 = 1
		}
		bs = append(bs, b0, b1)
	}
	return bs
}

func TestQPSKMapping(t *testing.T) {
	// TS 38.211: b=00 → (1+j)/√2, 01 → (1−j)/√2, 10 → (−1+j)/√2, 11 → (−1−j)/√2.
	bs := []fec.Bit{0, 0, 0, 1, 1, 0, 1, 1}
	syms := qpskMap(bs)
	s := 1 / math.Sqrt2
	want := []complex128{complex(s, s), complex(s, -s), complex(-s, s), complex(-s, -s)}
	for i := range want {
		if math.Abs(real(syms[i])-real(want[i])) > 1e-12 || math.Abs(imag(syms[i])-imag(want[i])) > 1e-12 {
			t.Fatalf("QPSK sym %d = %v, want %v", i, syms[i], want[i])
		}
		if e := real(syms[i])*real(syms[i]) + imag(syms[i])*imag(syms[i]); math.Abs(e-1) > 1e-12 {
			t.Fatalf("QPSK sym %d energy %v, want 1", i, e)
		}
	}
	got := qpskDecide(syms)
	for i := range bs {
		if got[i] != bs[i] {
			t.Fatalf("hard decision bit %d = %d, want %d", i, got[i], bs[i])
		}
	}
}

func TestBERMonotoneInSNR(t *testing.T) {
	for _, s := range []modulation.Scheme{modulation.QPSK, modulation.QAM16, modulation.QAM64, modulation.QAM256} {
		prev := 1.0
		for db := -10.0; db <= 40; db += 2 {
			ber := BER(s, DBToLinear(db))
			if ber > prev+1e-15 {
				t.Fatalf("%v BER not monotone at %vdB", s, db)
			}
			if ber < 0 || ber > 0.5 {
				t.Fatalf("%v BER out of range: %v", s, ber)
			}
			prev = ber
		}
	}
	if BER(modulation.QPSK, 0) != 0.5 {
		t.Fatal("zero SNR must give BER 0.5")
	}
}

func TestBEROrderAcrossSchemes(t *testing.T) {
	// At operating SNRs, denser constellations have higher BER. (Below
	// ≈8 dB the standard M-QAM approximation's leading coefficient makes
	// the comparison meaningless — all schemes are unusable there anyway.)
	for _, db := range []float64{10, 15, 20, 25} {
		snr := DBToLinear(db)
		if !(BER(modulation.QPSK, snr) <= BER(modulation.QAM16, snr) &&
			BER(modulation.QAM16, snr) <= BER(modulation.QAM64, snr) &&
			BER(modulation.QAM64, snr) <= BER(modulation.QAM256, snr)) {
			t.Fatalf("BER ordering violated at %vdB", db)
		}
	}
}

func TestBERMatchesMonteCarloQPSK(t *testing.T) {
	// The analytic QPSK BER must match an end-to-end map→AWGN→decide
	// measurement: BER and ApplyAWGN agree on what "SNR" means.
	rng := sim.NewRNG(11)
	const snrDB = 7.0
	bs := make([]fec.Bit, 400000)
	for i := range bs {
		bs[i] = fec.Bit(rng.Uint64()) & 1
	}
	got := qpskDecide(ApplyAWGN(qpskMap(bs), snrDB, rng))
	errs := 0
	for i := range bs {
		if got[i] != bs[i] {
			errs++
		}
	}
	measured := float64(errs) / float64(len(bs))
	analytic := BER(modulation.QPSK, DBToLinear(snrDB))
	if measured == 0 || math.Abs(measured-analytic)/analytic > 0.15 {
		t.Fatalf("QPSK@%vdB: measured %v vs analytic %v", snrDB, measured, analytic)
	}
}

func TestBLERUncoded(t *testing.T) {
	if BLERUncoded(0, 1000) != 0 || BLERUncoded(1, 10) != 1 {
		t.Fatal("BLER extremes wrong")
	}
	got := BLERUncoded(1e-3, 1000)
	want := 1 - math.Pow(1-1e-3, 1000)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("BLER = %v", got)
	}
	if BLERUncoded(1e-4, 100) >= BLERUncoded(1e-4, 10000) {
		t.Fatal("BLER must grow with block size")
	}
}

func TestBLERCodedWaterfall(t *testing.T) {
	// The coded BLER must show a waterfall: tiny at BER 1e-4, near 1 at 0.1.
	lo := BLERCoded(1e-4, 1000)
	hi := BLERCoded(0.1, 1000)
	if lo > 1e-4 {
		t.Fatalf("coded BLER at 1e-4 = %v, want ≈0", lo)
	}
	if hi < 0.99 {
		t.Fatalf("coded BLER at 0.1 = %v, want ≈1", hi)
	}
	if BLERCoded(0, 100) != 0 {
		t.Fatal("zero BER must give zero BLER")
	}
	// Coding must beat no coding in the operating region.
	if BLERCoded(1e-3, 1000) >= BLERUncoded(1e-3, 1000) {
		t.Fatal("coding gain missing at BER 1e-3")
	}
}

func TestFlipBits(t *testing.T) {
	rng := sim.NewRNG(3)
	bs := make([]fec.Bit, 100000)
	out := FlipBits(bs, 0.01, rng)
	flips := 0
	for i := range bs {
		if out[i] != bs[i] {
			flips++
		}
	}
	rate := float64(flips) / float64(len(bs))
	if math.Abs(rate-0.01) > 0.002 {
		t.Fatalf("flip rate %v, want ≈0.01", rate)
	}
	// ber=0 must be the identity.
	bs[0] = 1
	if got := FlipBits(bs[:10], 0, rng); got[0] != 1 {
		t.Fatal("ber=0 modified bits")
	}
}

func TestAWGNModel(t *testing.T) {
	m := AWGN{SNR: 12.5}
	if m.SNRdB(0) != 12.5 || m.SNRdB(sim.Time(1e9)) != 12.5 {
		t.Fatal("AWGN must be time-invariant")
	}
	if m.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestBlockageStationaryFraction(t *testing.T) {
	rng := sim.NewRNG(7)
	b := NewBlockage(25, 25, 90*sim.Millisecond, 10*sim.Millisecond, rng)
	if got := b.StationaryBlockedFraction(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("stationary fraction = %v, want 0.1", got)
	}
	// Empirically: sample over a long horizon.
	blocked := 0
	const n = 200000
	for i := int64(0); i < n; i++ {
		if b.Blocked(sim.Time(i * int64(50*sim.Microsecond))) {
			blocked++
		}
	}
	frac := float64(blocked) / n
	if math.Abs(frac-0.1) > 0.02 {
		t.Fatalf("empirical blocked fraction %v, want ≈0.1", frac)
	}
}

func TestBlockageSNRLevels(t *testing.T) {
	rng := sim.NewRNG(8)
	b := NewBlockage(25, 30, sim.Second, sim.Second, rng)
	seen := map[float64]bool{}
	for i := int64(0); i < 1000; i++ {
		seen[b.SNRdB(sim.Time(i*int64(10*sim.Millisecond)))] = true
	}
	if !seen[25] || !seen[-5] || len(seen) != 2 {
		t.Fatalf("blockage SNR levels = %v, want {25,-5}", seen)
	}
}

func TestBlockageOutOfOrderQuery(t *testing.T) {
	rng := sim.NewRNG(9)
	b := NewBlockage(25, 25, sim.Millisecond, sim.Millisecond, rng)
	b.SNRdB(sim.Time(int64(sim.Second)))
	// An earlier query must not panic or rewind the chain.
	_ = b.SNRdB(sim.Time(0))
}

func TestTransportBLER(t *testing.T) {
	mcs, _ := modulation.MCSByIndex(10)
	good := TransportBLER(AWGN{SNR: 30}, mcs, 0, 1000)
	bad := TransportBLER(AWGN{SNR: 0}, mcs, 0, 1000)
	if good > 1e-9 {
		t.Fatalf("BLER at 30dB = %v", good)
	}
	if bad < 0.99 {
		t.Fatalf("BLER at 0dB = %v", bad)
	}
}

func TestCodedChainSurvivesModerateNoise(t *testing.T) {
	// End-to-end: encode → QPSK map → AWGN at a BER≈0.6% operating point →
	// hard decision → decode must recover the block (coding gain in action).
	rng := sim.NewRNG(10)
	msg := make([]byte, 64)
	for i := range msg {
		msg[i] = byte(rng.Uint64())
	}
	// The coded length 2·(8·64+6) is even, a whole number of QPSK symbols.
	rx := ApplyAWGN(qpskMap(fec.EncodeBlock(msg)), 7, rng) // QPSK@7dB → BER ≈ 6e-3
	got, err := fec.DecodeBlock(qpskDecide(rx), len(msg))
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		if got[i] != msg[i] {
			t.Fatalf("coded chain failed at byte %d", i)
		}
	}
}
