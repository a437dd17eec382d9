// Package cell runs a many-UE cell through the real scheduler: N periodic
// machines (the ns-3 LENA Industry-4.0 shape) contend for one gNB's slot
// capacity in a single engine, with per-UE SR/grant handshakes, slot-capacity
// contention, SR storms, and grant-free collisions resolved in-sim rather
// than by closed form — the simulated counterpart of internal/multiue's
// analytic answer to §9's "how many URLLC users can one cell hold?".
//
// The cell is an orchestration layer, not a second stack: every packet flows
// through the existing node pipeline (SendUplinkFrom attribution), so per-UE
// KPIs, the slot ledger and flight recording all work unchanged. Scheduling
// fairness is round-robin across UEs (sched.FairRoundRobin); grant-free
// contention shares CGUnits units per UL slot with randomized collision
// backoff (node's CG model).
package cell

import (
	"fmt"
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

// Every cell runs the DU TDD configuration (one DL slot, one UL slot — the
// highest UL share of the paper's Common Configurations, so a cell saturates
// from load rather than from grid starvation) with 32 B machine telegrams,
// and keeps its engine running for drain after the last arrival so in-flight
// packets resolve.
const (
	pattern      = urllcsim.PatternDU
	payloadBytes = 32
	drain        = 200 * time.Millisecond
)

// Config parameterises one cell run.
type Config struct {
	// UEs is the number of concurrently active machines. Required.
	UEs int

	// Mode is the uplink access scheme (dynamic grant by default).
	Mode Mode

	// Period is each machine's traffic cycle; 0 → 50 ms. Machines are
	// phase-staggered across the period (workload.Fleet) so the fleet
	// does not fire in lock-step.
	Period time.Duration
	// Jitter is per-machine uniform arrival jitter within each cycle.
	Jitter time.Duration
	// Cycles is how many packets each machine offers; 0 → 8.
	Cycles int

	// CGUnits is the grant-free contention-unit count per UL slot;
	// 0 → 12 in ModeGrantFree, ignored in ModeDynamic.
	CGUnits int
	// CGBackoffSlots is the collision backoff window; 0 → 8.
	CGBackoffSlots int

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
	if c.Period <= 0 {
		c.Period = 50 * time.Millisecond
	}
	if c.Cycles <= 0 {
		c.Cycles = 8
	}
	if c.Mode == ModeGrantFree && c.CGUnits <= 0 {
		c.CGUnits = 12
	}
	return nil
}

// Result summarises one cell run.
type Result struct {
	Offered   int // packets injected
	Delivered int
	Lost      int
	Pending   int // unresolved at the horizon (0 for a stable load)

	SRsSent      int
	GrantsIssued int
	CGCollisions int

	WorstUL time.Duration // worst delivered UL latency (0 if none)

	Horizon time.Duration // virtual time the engine ran to
}

// Run builds the cell, offers the whole fleet's traffic and runs the engine
// past the last arrival. Same Config ⇒ byte-identical behaviour.
func Run(cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	// The scenario's processing-load UE count stays at its default of one:
	// the §7 scaling law (t·(1+0.08·(n−1)) at the gNB) comes from a
	// single-UE software testbed, and extrapolating it 500× would swamp
	// every queueing effect the cell exists to expose.
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern:        pattern,
		SlotScale:      urllcsim.Slot0p5ms,
		GrantFree:      cfg.Mode == ModeGrantFree,
		CGUnits:        cfg.CGUnits,
		CGBackoffSlots: cfg.CGBackoffSlots,
		RoundRobin:     cfg.Mode == ModeDynamic,
		Seed:           cfg.Seed,
		Obs:            cfg.Obs,
	})
	if err != nil {
		return nil, err
	}

	res := &Result{}
	var last sim.Time
	fleet := workload.NewFleet(cfg.UEs, sim.Duration(cfg.Period), sim.Duration(cfg.Jitter),
		payloadBytes, sim.NewRNG(cfg.Seed^0xCE11F1EE7))
	for range cfg.UEs * cfg.Cycles {
		mp := fleet.NextMachine()
		sc.SendUplinkFrom(mp.UE, time.Duration(mp.Arrival), mp.Bytes)
		last = max(last, mp.Arrival)
		res.Offered++
	}

	horizon := time.Duration(last) + drain
	results := sc.Run(horizon)
	for _, r := range results {
		if r.Delivered {
			res.Delivered++
			res.WorstUL = max(res.WorstUL, r.Latency)
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
