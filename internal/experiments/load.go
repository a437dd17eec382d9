package experiments

import (
	"fmt"
	"sort"
	"strings"

	"urllcsim/internal/node"
	"urllcsim/internal/sim"
	"urllcsim/internal/sweep"
)

// Load sweeps the offered DL traffic on the testbed: as the arrival rate
// approaches the DL capacity of the TDD pattern, the RLC queue transitions
// from the paper's ≈0.4ms scheduling wait into genuine queueing collapse —
// the "multiple UEs / more traffic" regime §9 flags. Inter-arrival gaps are
// exponential; each packet is 200B.
func Load(seed uint64, workers int) (string, error) {
	// Each offered-load row owns its system and its RNG (keyed by the row's
	// rate), so the rows run as independent sweep jobs and assemble in rate
	// order — byte-identical to the sequential loop.
	rates := []float64{0.5, 2, 8, 16, 24, 30}
	rows, err := sweep.Run(workers, len(rates), func(i int) (string, error) {
		perMs := rates[i]
		cfg, err := TestbedConfig(false, seed)
		if err != nil {
			return "", err
		}
		cfg.PayloadBytes = 200
		s, err := node.NewSystem(cfg)
		if err != nil {
			return "", err
		}
		rng := sim.NewRNG(seed*1000 + uint64(perMs*10))
		const horizonMs = 400
		n := 0
		var t sim.Time
		for t < sim.Time(horizonMs*1_000_000) {
			gap := sim.Duration(rng.Exponential(1e6 / perMs))
			t = t.Add(gap)
			s.OfferDL(t, 200)
			n++
		}
		s.Eng.Run(sim.Time((horizonMs + 100) * 1_000_000))
		var lats []float64
		for _, r := range s.Results() {
			if r.Delivered {
				lats = append(lats, float64(r.Latency)/1e6)
			}
		}
		if len(lats) == 0 {
			return fmt.Sprintf("%-18.1f %12s %12s %12s %9d/%d\n", perMs, "—", "—", "—", 0, n), nil
		}
		sort.Float64s(lats)
		var sum float64
		for _, l := range lats {
			sum += l
		}
		rlcq := s.LayerStats()["RLC-q"]
		return fmt.Sprintf("%-18.1f %12.2f %12.2f %12.0f %9d/%d\n",
			perMs, sum/float64(len(lats)), lats[len(lats)*99/100], rlcq.Mean(), len(lats), n), nil
	})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %12s %12s %12s %14s\n",
		"offered [pkt/ms]", "mean [ms]", "p99 [ms]", "RLC-q [µs]", "delivered")
	for _, row := range rows {
		sb.WriteString(row)
	}
	sb.WriteString("\nbelow saturation the RLC queue is pure scheduling wait (Table 2's ≈0.4ms);\n")
	sb.WriteString("near the DL capacity of DDDU it becomes the system's dominant latency —\n")
	sb.WriteString("URLLC budgets assume a lightly loaded cell (§9 scalability)\n")
	return sb.String(), nil
}

func init() {
	All = append(All, Experiment{ID: "load", Title: "A6 — offered load vs queueing collapse", Run: Load})
}
