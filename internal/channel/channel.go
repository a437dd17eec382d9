// Package channel models the radio channel between UE and gNB: AWGN with
// analytic per-scheme bit-error rates, and the two-state LoS/NLoS blockage
// process that makes mmWave unreliable — the effect behind the paper's
// observation that FR2 reaches sub-millisecond latency only ≈4.4 % of the
// time ([19] in the paper).
package channel

import (
	"fmt"
	"math"

	"urllcsim/internal/fec"
	"urllcsim/internal/modulation"
	"urllcsim/internal/sim"
)

// Q is the Gaussian tail function Q(x) = P(N(0,1) > x).
func Q(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// BER returns the analytic bit error rate of the scheme over AWGN at the
// given per-symbol SNR (Es/N0, linear). Gray coding makes the standard
// approximation tight: QPSK is exact, M-QAM within a few percent.
func BER(s modulation.Scheme, snrLinear float64) float64 {
	if snrLinear <= 0 {
		return 0.5
	}
	m := float64(int(1) << uint(s.BitsPerSymbol()))
	k := float64(s.BitsPerSymbol())
	switch s {
	case modulation.QPSK:
		// Per-bit: Q(sqrt(Es/N0)) with Es = 2Eb.
		return Q(math.Sqrt(snrLinear))
	default:
		return 4 / k * (1 - 1/math.Sqrt(m)) * Q(math.Sqrt(3*snrLinear/(m-1)))
	}
}

// DBToLinear converts dB to a linear power ratio.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// LinearToDB converts a linear power ratio to dB.
func LinearToDB(lin float64) float64 { return 10 * math.Log10(lin) }

// BLERUncoded returns 1-(1-ber)^n: the probability an n-bit block has at
// least one error with no coding.
func BLERUncoded(ber float64, nBits int) float64 {
	if ber <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	return 1 - math.Pow(1-ber, float64(nBits))
}

// BLERCoded approximates the block error rate after the rate-1/2 K=7
// convolutional code: the code corrects scattered errors up to half its free
// distance (10) per constraint window, which an error-exponent fit captures
// as a steep waterfall around BER ≈ 2–3 %. Calibrated against the package's
// own Monte-Carlo tests.
func BLERCoded(ber float64, nInfoBits int) float64 {
	if ber <= 0 {
		return 0
	}
	// Union bound flavour: P(block) ≈ 1-(1-p_ev)^n with the first-event
	// error probability p_ev ≈ 2^dfree · ber^(dfree/2), dfree = 10.
	pEv := math.Pow(2, 10) * math.Pow(ber, 5)
	if pEv > 1 {
		pEv = 1
	}
	return 1 - math.Pow(1-pEv, float64(nInfoBits))
}

// ApplyAWGN adds circular complex Gaussian noise for the given Es/N0 (dB)
// to unit-energy constellation symbols.
func ApplyAWGN(syms []complex128, snrDB float64, rng *sim.RNG) []complex128 {
	sigma := math.Sqrt(1 / (2 * DBToLinear(snrDB)))
	out := make([]complex128, len(syms))
	for i, s := range syms {
		out[i] = s + complex(rng.Normal(0, sigma), rng.Normal(0, sigma))
	}
	return out
}

// FlipBits returns a copy of bs with each bit independently flipped with
// probability ber — the hard-decision abstraction of an AWGN demodulator,
// used when the full IQ path is not simulated.
func FlipBits(bs []fec.Bit, ber float64, rng *sim.RNG) []fec.Bit {
	out := make([]fec.Bit, len(bs))
	for i, b := range bs {
		if b != fec.Erasure && rng.Bernoulli(ber) {
			out[i] = b ^ 1
		} else {
			out[i] = b
		}
	}
	return out
}

// Model is the channel interface the radio nodes consume: the SNR seen by a
// transmission at virtual time t. Implementations evolve their internal
// state lazily, so queries must come with non-decreasing times.
type Model interface {
	// SNRdB returns the instantaneous Es/N0 in dB at time t.
	SNRdB(t sim.Time) float64
	// Name identifies the model in reports.
	Name() string
}

// AWGN is a static channel.
type AWGN struct{ SNR float64 }

// SNRdB returns the configured SNR.
func (a AWGN) SNRdB(sim.Time) float64 { return a.SNR }

// Name implements Model.
func (a AWGN) Name() string { return fmt.Sprintf("awgn(%.1fdB)", a.SNR) }

// Blockage is the mmWave LoS/NLoS alternating-renewal channel: exponential
// sojourns in each state; NLoS subtracts PenaltyDB (20–30 dB for a human
// body or wall at 28 GHz, after which the link is effectively in outage).
type Blockage struct {
	LoSSNRdB  float64
	PenaltyDB float64
	MeanLoS   sim.Duration // mean unblocked sojourn
	MeanNLoS  sim.Duration // mean blocked sojourn
	rng       *sim.RNG

	cursor    sim.Time // state valid from cursor to nextSwitch
	nextFlip  sim.Time
	blockedSt bool
}

// NewBlockage returns a blockage channel starting unblocked.
func NewBlockage(losSNRdB, penaltyDB float64, meanLoS, meanNLoS sim.Duration, rng *sim.RNG) *Blockage {
	b := &Blockage{LoSSNRdB: losSNRdB, PenaltyDB: penaltyDB, MeanLoS: meanLoS, MeanNLoS: meanNLoS, rng: rng}
	b.nextFlip = sim.Time(rng.Exponential(float64(meanLoS)))
	return b
}

// SNRdB implements Model, evolving the Markov chain up to t.
func (b *Blockage) SNRdB(t sim.Time) float64 {
	if t < b.cursor {
		// Out-of-order query: answer with current state without evolving.
		t = b.cursor
	}
	for t >= b.nextFlip {
		b.cursor = b.nextFlip
		b.blockedSt = !b.blockedSt
		mean := b.MeanLoS
		if b.blockedSt {
			mean = b.MeanNLoS
		}
		b.nextFlip = b.nextFlip.Add(sim.Duration(b.rng.Exponential(float64(mean))) + 1)
	}
	b.cursor = t
	if b.blockedSt {
		return b.LoSSNRdB - b.PenaltyDB
	}
	return b.LoSSNRdB
}

// Blocked reports the state at time t (evolving the chain).
func (b *Blockage) Blocked(t sim.Time) bool {
	b.SNRdB(t)
	return b.blockedSt
}

// Name implements Model.
func (b *Blockage) Name() string {
	return fmt.Sprintf("blockage(%.1fdB-%.1fdB)", b.LoSSNRdB, b.PenaltyDB)
}

// StationaryBlockedFraction returns the long-run fraction of time blocked.
func (b *Blockage) StationaryBlockedFraction() float64 {
	l, n := float64(b.MeanLoS), float64(b.MeanNLoS)
	return n / (l + n)
}

// TransportBLER combines a channel model and an MCS into the block error
// probability of a transmission at time t carrying nInfoBits.
func TransportBLER(m Model, mcs modulation.MCS, t sim.Time, nInfoBits int) float64 {
	ber := BER(mcs.Scheme, DBToLinear(m.SNRdB(t)))
	return BLERCoded(ber, nInfoBits)
}
