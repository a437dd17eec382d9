package experiments

import (
	"fmt"
	"strings"

	"urllcsim/internal/channel"
	"urllcsim/internal/metrics"
	"urllcsim/internal/node"
	"urllcsim/internal/nr"
	"urllcsim/internal/proc"
	"urllcsim/internal/radio"
	"urllcsim/internal/sim"
)

// Design is one end-to-end system design evaluated against the URLLC bar.
type Design struct {
	Name string
	Cfg  func(seed uint64) (node.Config, error)
}

// miniSlotGrid builds the all-flexible µ2 grid with 2-symbol scheduling.
func miniSlotGrid() (*nr.Grid, error) {
	kinds := make([]nr.SymbolKind, nr.SymbolsPerSlot)
	for i := range kinds {
		kinds[i] = nr.SymFlexible
	}
	return nr.MiniSlotGrid(nr.MiniSlotConfig{Mu: nr.Mu2, Length: 2}, kinds, "mini-slot")
}

// AchievedDesigns are the three designs of the §5 narrative: the software
// testbed (§7 — fails), a tuned software system (closer), and the strict
// design §5 says can work: hardware-accelerated processing, low-latency
// front-haul, RT behaviour, grant-free access, fine-grained scheduling.
var AchievedDesigns = []Design{
	{
		Name: "software i7 + USB2, DDDU µ1, grant-based (the §7 testbed)",
		Cfg: func(seed uint64) (node.Config, error) {
			return TestbedConfig(false, seed)
		},
	},
	{
		Name: "software i7 + USB3 + RT, DM µ2, grant-free",
		Cfg: func(seed uint64) (node.Config, error) {
			g, err := nr.BuildGrid(nr.CommonConfig{Mu: nr.Mu2, Pattern1: nr.PatternDM(nr.Mu2, 6, 6)}, 0, "DM")
			if err != nil {
				return node.Config{}, err
			}
			h := radio.B210(radio.USB3())
			h.Bus.Jitter = proc.RTKernel()
			return node.Config{
				Grid: g, GrantFree: true,
				GNBRadio: h, Channel: channel.AWGN{SNR: 25},
				MarginSlots: 1, HARQMaxTx: 2,
				CoreLatency: 20 * sim.Microsecond, PayloadBytes: 32, Seed: seed,
			}, nil
		},
	},
	{
		Name: "ASIC + PCIe + RT, mini-slot µ2, grant-free, 60µs lead",
		Cfg: func(seed uint64) (node.Config, error) {
			g, err := miniSlotGrid()
			if err != nil {
				return node.Config{}, err
			}
			h := radio.LowLatencySDR()
			h.Bus.Jitter = proc.RTKernel()
			return node.Config{
				Grid: g, GrantFree: true,
				GNBProfile: proc.ASICProfile(), UEProfile: proc.ASICProfile(),
				GNBRadio: h, Channel: channel.AWGN{SNR: 25},
				MarginSlots: 0, HARQMaxTx: 2,
				TickLead:    60 * sim.Microsecond,
				CoreLatency: 10 * sim.Microsecond, PayloadBytes: 32, Seed: seed,
			}, nil
		},
	},
}

// DesignOutcome is the URLLC verdict for one design and direction.
type DesignOutcome struct {
	WithinDeadline float64 // fraction ≤ 0.5 ms
	Nines          float64
	MeanMs         float64
	Delivered      int
	Offered        int
}

// EvaluateDesign runs n packets each way and scores them against 0.5 ms.
// Each direction shards its packets over ReplicaShards independent replicas
// on the worker pool; per-shard reliability counters merge by exact
// addition, so the verdict is identical for any worker count.
func EvaluateDesign(d Design, n int, seed uint64, workers int) (ul, dl DesignOutcome, err error) {
	for _, uplink := range []bool{true, false} {
		systems, err2 := runSharded(n, uplink, seed, workers, d.Cfg)
		if err2 != nil {
			return ul, dl, err2
		}
		rel := metrics.Reliability{Deadline: 500 * sim.Microsecond}
		var o DesignOutcome
		o.Offered = n
		var sum float64
		for _, s := range systems {
			shardRel := metrics.Reliability{Deadline: 500 * sim.Microsecond}
			for _, r := range s.Results() {
				shardRel.Record(r.Delivered, r.Latency)
				if r.Delivered {
					o.Delivered++
					sum += float64(r.Latency) / 1e6
				}
			}
			rel.Merge(&shardRel)
		}
		if o.Delivered > 0 {
			o.MeanMs = sum / float64(o.Delivered)
		}
		o.WithinDeadline = rel.Value()
		o.Nines = rel.Nines()
		if uplink {
			ul = o
		} else {
			dl = o
		}
	}
	return ul, dl, nil
}

// Achieved runs all three designs — the paper's conclusion in one table:
// "URLLC is, in principle, possible, [but] the set of possible system
// designs is quite limited".
func Achieved(seed uint64, workers int) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-58s %20s %20s\n", "design", "UL ≤0.5ms (nines)", "DL ≤0.5ms (nines)")
	const n = 1500
	for _, d := range AchievedDesigns {
		ul, dl, err := EvaluateDesign(d, n, seed, workers)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%-58s %12.3f%% (%.1f) %12.3f%% (%.1f)\n",
			d.Name, 100*ul.WithinDeadline, ul.Nines, 100*dl.WithinDeadline, dl.Nines)
	}
	sb.WriteString("\nonly the strict design — hardware-accelerated processing, low-latency\n")
	sb.WriteString("front-haul, RT behaviour, grant-free access, fine-grained scheduling —\n")
	sb.WriteString("approaches the URLLC bar; each relaxation breaks it (§5)\n")
	return sb.String(), nil
}

func init() {
	All = append(All, Experiment{ID: "achieved", Title: "X5 — which system designs actually achieve URLLC", Run: Achieved})
}
