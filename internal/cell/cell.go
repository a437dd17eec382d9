// Package cell runs a many-UE cell through the real scheduler: N periodic
// machines (the ns-3 LENA Industry-4.0 shape) contend for one gNB's slot
// capacity in a single engine, with per-UE SR/grant handshakes, slot-capacity
// contention, SR storms, and grant-free collisions resolved in-sim rather
// than by closed form — the simulated counterpart of internal/multiue's
// analytic answer to §9's "how many URLLC users can one cell hold?".
//
// The cell is an orchestration layer, not a second stack: every packet flows
// through the existing node pipeline (SendUplinkFrom/SendDownlinkFrom
// attribution), so per-UE KPIs, the slot ledger, flight recording and the
// deadline audit all work unchanged. Scheduling fairness is round-robin
// across UEs (sched.FairRoundRobin); grant-free contention shares CGUnits
// units per UL slot with randomized collision backoff (node's CG model).
package cell

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"urllcsim"
	"urllcsim/internal/obs"
	"urllcsim/internal/sim"
	"urllcsim/internal/workload"
)

// Mode selects the uplink access scheme.
type Mode int

const (
	// ModeDynamic uses the SR → grant handshake for every packet, with
	// round-robin fairness across UEs at each scheduling tick.
	ModeDynamic Mode = iota
	// ModeGrantFree uses shared configured grants: CGUnits contention
	// units per UL slot, collisions resolved in-sim with random backoff.
	ModeGrantFree
)

func (m Mode) String() string {
	if m == ModeGrantFree {
		return "grant-free"
	}
	return "dynamic-grant"
}

// Config parameterises one cell run.
type Config struct {
	// UEs is the number of concurrently active machines. Required.
	UEs int

	// Mode is the uplink access scheme (dynamic grant by default).
	Mode Mode

	// Pattern is the TDD configuration; "" → DU (one DL slot, one UL slot
	// — the highest UL share of the paper's Common Configurations, so a
	// cell saturates from load rather than from grid starvation).
	Pattern urllcsim.Pattern

	// Period is each machine's traffic cycle; 0 → 50 ms. Machines are
	// phase-staggered across the period (workload.Fleet) so the fleet
	// does not fire in lock-step.
	Period time.Duration
	// Jitter is per-machine uniform arrival jitter within each cycle.
	Jitter time.Duration
	// PayloadBytes is the machine telegram size; 0 → 32.
	PayloadBytes int
	// Cycles is how many packets each machine offers; 0 → 8.
	Cycles int

	// DLBytes, when positive, also sends one DL packet of this size per
	// machine per cycle (actuator commands riding the same cell).
	DLBytes int

	// Deadline, when positive, audits every packet against this one-way
	// budget (see urllcsim.ScenarioConfig.Deadline).
	Deadline time.Duration

	// HARQMaxTx bounds transmissions per packet; 0 → 3.
	HARQMaxTx int
	// SNRdB is the static channel SNR; 0 → 25 dB.
	SNRdB float64

	// CGUnits is the grant-free contention-unit count per UL slot;
	// 0 → 12 in ModeGrantFree, ignored in ModeDynamic.
	CGUnits int
	// CGBackoffSlots is the collision backoff window; 0 → 8.
	CGBackoffSlots int

	// ProcUEs is the processing-load UE count fed to the §7 scaling law
	// (t·(1+0.08·(n−1)) at the gNB); 0 → 1. Kept separate from UEs: the
	// measured law comes from a single-UE software testbed and
	// extrapolating it 500× would swamp every queueing effect the cell
	// exists to expose.
	ProcUEs int

	// Drain is how long the engine keeps running after the last arrival
	// so in-flight packets resolve; 0 → 200 ms.
	Drain time.Duration

	// Seed makes runs reproducible.
	Seed uint64

	// Obs, when non-nil, collects spans, per-UE labeled metrics, the slot
	// ledger (if enabled on the recorder) and outcome records for the KPI
	// pass (analyze.ComputeKPI).
	Obs *obs.Recorder
}

func (c *Config) setDefaults() error {
	if c.UEs <= 0 {
		return fmt.Errorf("cell: UEs must be positive, got %d", c.UEs)
	}
	if c.Pattern == "" {
		c.Pattern = urllcsim.PatternDU
	}
	if c.Period <= 0 {
		c.Period = 50 * time.Millisecond
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 32
	}
	if c.Cycles <= 0 {
		c.Cycles = 8
	}
	if c.Mode == ModeGrantFree && c.CGUnits <= 0 {
		c.CGUnits = 12
	}
	if c.ProcUEs <= 0 {
		c.ProcUEs = 1
	}
	if c.Drain <= 0 {
		c.Drain = 200 * time.Millisecond
	}
	return nil
}

// Result summarises one cell run.
type Result struct {
	Offered   int // packets injected (UL + DL)
	Delivered int
	Lost      int
	Pending   int // unresolved at the horizon (0 for a stable load)

	SRsSent      int
	GrantsIssued int
	CGCollisions int

	WorstUL time.Duration // worst delivered UL latency (0 if none)
	WorstDL time.Duration

	Horizon time.Duration // virtual time the engine ran to
}

// Run builds the cell, offers the whole fleet's traffic and runs the engine
// past the last arrival. Same Config ⇒ byte-identical behaviour.
func Run(cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern:        cfg.Pattern,
		SlotScale:      urllcsim.Slot0p5ms,
		GrantFree:      cfg.Mode == ModeGrantFree,
		CGUnits:        cfg.CGUnits,
		CGBackoffSlots: cfg.CGBackoffSlots,
		RoundRobin:     cfg.Mode == ModeDynamic,
		SNRdB:          cfg.SNRdB,
		HARQMaxTx:      cfg.HARQMaxTx,
		UEs:            cfg.ProcUEs,
		Seed:           cfg.Seed,
		Deadline:       cfg.Deadline,
		Obs:            cfg.Obs,
	})
	if err != nil {
		return nil, err
	}

	res := &Result{}
	var last sim.Time
	send := func(dl bool, mp workload.MachinePacket) {
		if dl {
			sc.SendDownlinkFrom(mp.UE, time.Duration(mp.Arrival), mp.Bytes)
		} else {
			sc.SendUplinkFrom(mp.UE, time.Duration(mp.Arrival), mp.Bytes)
		}
		last = max(last, mp.Arrival)
		res.Offered++
	}
	n := cfg.UEs * cfg.Cycles
	ulFleet := workload.NewFleet(cfg.UEs, sim.Duration(cfg.Period), sim.Duration(cfg.Jitter),
		cfg.PayloadBytes, sim.NewRNG(cfg.Seed^0xCE11F1EE7))
	if cfg.DLBytes == 0 {
		for i := 0; i < n; i++ {
			send(false, ulFleet.NextMachine())
		}
	} else {
		// Both fleets are offered in one pass, stably sorted by arrival
		// (UL before DL at equal instants, each fleet in its own order), so
		// the engine's arrival lane gets its pushes in time order. The
		// firing order is the one of offering the whole UL fleet first.
		dlFleet := workload.NewFleet(cfg.UEs, sim.Duration(cfg.Period), sim.Duration(cfg.Jitter),
			cfg.DLBytes, sim.NewRNG(cfg.Seed^0xCE11D00F))
		type offer struct {
			dl bool
			mp workload.MachinePacket
		}
		offers := make([]offer, 0, 2*n)
		for _, f := range []*workload.Fleet{ulFleet, dlFleet} {
			for i := 0; i < n; i++ {
				offers = append(offers, offer{f == dlFleet, f.NextMachine()})
			}
		}
		slices.SortStableFunc(offers, func(a, b offer) int { return cmp.Compare(a.mp.Arrival, b.mp.Arrival) })
		for _, o := range offers {
			send(o.dl, o.mp)
		}
	}

	horizon := time.Duration(last) + cfg.Drain
	results := sc.Run(horizon)
	for _, r := range results {
		if r.Delivered {
			res.Delivered++
			if r.Uplink && r.Latency > res.WorstUL {
				res.WorstUL = r.Latency
			}
			if !r.Uplink && r.Latency > res.WorstDL {
				res.WorstDL = r.Latency
			}
		} else {
			res.Lost++
		}
	}
	res.Pending = res.Offered - len(results)
	res.SRsSent = sc.SRsSent()
	res.GrantsIssued = sc.GrantsIssued()
	res.CGCollisions = sc.CGCollisions()
	res.Horizon = horizon
	return res, nil
}
