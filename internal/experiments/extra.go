package experiments

import (
	"fmt"
	"math"
	"strings"

	"urllcsim/internal/channel"
	"urllcsim/internal/fec"
	"urllcsim/internal/modulation"
	"urllcsim/internal/nr"
	"urllcsim/internal/rach"
	"urllcsim/internal/sim"
)

// RACH quantifies the initial-access cost: the 4-step random access a UE
// pays before any connected-mode latency applies — the implicit premise of
// the paper's analysis (URLLC UEs stay connected).
func RACH(_ uint64, _ int) (string, error) {
	g, err := nr.BuildGrid(nr.CommonConfig{Mu: nr.Mu1, Pattern1: nr.PatternDDDU(nr.Mu1)}, 2, "DDDU")
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %12s %12s %16s\n", "PRACH period", "mean access", "worst access", "mean @40 UEs")
	for _, period := range []sim.Duration{10 * sim.Millisecond, 5 * sim.Millisecond, 2500 * sim.Microsecond} {
		cfg := rach.DefaultConfig(g)
		cfg.PRACHPeriod = period
		mean, err := cfg.MeanTotal()
		if err != nil {
			return "", err
		}
		worst, err := cfg.WorstCase()
		if err != nil {
			return "", err
		}
		crowd, err := cfg.ExpectedWithContention(40)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%-14v %10.2fms %10.2fms %14.2fms\n",
			period, float64(mean)/1e6, float64(worst.Total)/1e6, float64(crowd)/1e6)
	}
	sb.WriteString("\neven the densest PRACH keeps initial access ≈10× the whole URLLC budget —\n")
	sb.WriteString("URLLC traffic must ride pre-established connections (implicit in §3)\n")
	return sb.String(), nil
}

// Coverage sweeps UE distance on a private factory cell: the link budget
// sets the SNR, the SNR sets the BLER at the operating MCS, and HARQ turns
// loss into latency — where in the building does URLLC still hold?
func Coverage(seed uint64, _ int) (string, error) {
	lb := channel.PrivateFactoryBudget()
	mcs, err := modulation.MCSByIndex(10)
	if err != nil {
		return "", err
	}
	// Deep non-line-of-sight through the racks: the InH NLOS offset plus
	// ~13 dB of metal-clutter excess — the factory environments §1 targets.
	const rackPenaltyDB = 25
	var sb strings.Builder
	fmt.Fprintf(&sb, "private factory cell (n78, 24dBm, InH): 16QAM r=1/3, 32B packets\n")
	fmt.Fprintf(&sb, "NLOS column: behind machinery (%.0f dB excess loss)\n\n", float64(rackPenaltyDB))
	fmt.Fprintf(&sb, "%-10s %10s %10s %12s %16s %18s\n",
		"distance", "LOS [dB]", "NLOS [dB]", "NLOS BLER", "NLOS attempts", "1st-attempt OK")
	rng := sim.NewRNG(seed + 77)
	for _, d := range []float64{5, 20, 50, 100, 150, 200, 300} {
		snr, err := lb.SNRAt(d, nil)
		if err != nil {
			return "", err
		}
		nlos := snr - rackPenaltyDB
		bler := channel.BLERCoded(channel.BER(mcs.Scheme, channel.DBToLinear(nlos)), 32*8)
		attempts := math.Inf(1)
		if bler < 1 {
			attempts = 1 / (1 - bler)
		}
		// First-attempt success with log-normal shadowing on top.
		ok := 0
		const trials = 4000
		for i := 0; i < trials; i++ {
			s, _ := lb.SNRAt(d, rng)
			b := channel.BLERCoded(channel.BER(mcs.Scheme, channel.DBToLinear(s-rackPenaltyDB)), 32*8)
			if !rng.Bernoulli(b) {
				ok++
			}
		}
		fmt.Fprintf(&sb, "%7.0fm %10.1f %10.1f %12.2g %16.2f %17.2f%%\n",
			d, snr, nlos, bler, attempts, 100*float64(ok)/trials)
	}
	sb.WriteString("\nlatency is a coverage property: past the BLER cliff every packet pays HARQ\n")
	sb.WriteString("round trips (≥1 TDD period each), and the 0.5ms budget is gone before the\n")
	sb.WriteString("radio is even slow — URLLC cell planning must budget for the worst corner\n")
	return sb.String(), nil
}

// BLERCurve validates the PHY's error model: Monte-Carlo block error rates
// of the real segment→encode→flip→Viterbi→CRC chain against the analytic
// BLER every simulated transport block is drawn from.
func BLERCurve(seed uint64, _ int) (string, error) {
	rng := sim.NewRNG(seed + 5)
	const blockBytes = 32
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %14s %14s\n", "BER", "BLER (MC)", "BLER (analytic)")
	for _, ber := range []float64{0.002, 0.005, 0.01, 0.02, 0.04, 0.08} {
		const trials = 400
		fails := 0
		for i := 0; i < trials; i++ {
			msg := make([]byte, blockBytes)
			for j := range msg {
				msg[j] = byte(rng.Uint64())
			}
			blocks := fec.Segment(msg)
			ok := true
			var rx [][]byte
			for _, blk := range blocks {
				dirty := channel.FlipBits(fec.EncodeBlock(blk), ber, rng)
				dec, err := fec.DecodeBlock(dirty, len(blk))
				if err != nil {
					ok = false
					break
				}
				rx = append(rx, dec)
			}
			if ok {
				if _, err := fec.Reassemble(rx, blockBytes); err != nil {
					ok = false
				}
			}
			if !ok {
				fails++
			}
		}
		mc := float64(fails) / trials
		an := channel.BLERCoded(ber, blockBytes*8)
		fmt.Fprintf(&sb, "%-10.3f %13.3f%% %13.3f%%\n", ber, 100*mc, 100*an)
	}
	sb.WriteString("\nthe analytic waterfall used by the fast path tracks the real\n")
	sb.WriteString("convolutional+CRC chain through the operating region\n")
	return sb.String(), nil
}

func init() {
	All = append(All,
		Experiment{ID: "rach", Title: "S1 — initial access (4-step RACH) cost", Deterministic: true, Run: RACH},
		Experiment{ID: "coverage", Title: "S2 — coverage vs URLLC: distance → SNR → BLER → latency", Run: Coverage},
		Experiment{ID: "blercurve", Title: "V1 — PHY chain validation: Monte-Carlo vs analytic BLER", Run: BLERCurve},
	)
}
