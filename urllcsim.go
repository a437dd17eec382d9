// Package urllcsim is a system-level latency simulator and analysis toolkit
// for 5G URLLC, reproducing "Ultra-Reliable Low-Latency in 5G: A Close
// Reality or a Distant Goal?" (HotNets '24).
//
// It answers two kinds of questions:
//
//   - Analytic: what is the worst-case one-way latency of a 5G configuration
//     (TDD pattern, mini-slot, FDD × grant-based/grant-free/DL), and does it
//     meet the 0.5 ms URLLC deadline? (The paper's Table 1 / Fig. 4.)
//
//   - Simulated: what latency distribution does a complete software 5G
//     stack deliver — protocol waits, per-layer processing, RLC queueing,
//     SR/grant handshakes, SDR bus transfer and OS jitter included? (The
//     paper's Table 2 / Fig. 5 / Fig. 6.)
//
// The simulation carries real bytes through real codecs: SDAP/PDCP (with
// AES-CTR ciphering and AES-CMAC integrity), RLC UM segmentation, MAC
// subPDU multiplexing — and an analytic PHY that loses each transport block
// with the coded block error rate of its modulation order over an AWGN or
// blockage channel.
//
// Quick start:
//
//	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
//	    Pattern:   urllcsim.PatternDDDU,
//	    SlotScale: urllcsim.Slot0p5ms,
//	    GrantFree: false,
//	    Radio:     urllcsim.RadioUSB2,
//	})
//	// offer traffic …
//	sc.SendUplink(0, 32)
//	results := sc.Run(100 * time.Millisecond)
package urllcsim

import (
	"fmt"
	"slices"
	"time"

	"urllcsim/internal/channel"
	"urllcsim/internal/node"
	"urllcsim/internal/nr"
	"urllcsim/internal/obs"
	"urllcsim/internal/proc"
	"urllcsim/internal/radio"
	"urllcsim/internal/sched"
	"urllcsim/internal/sim"
)

// Pattern names a TDD/duplexing configuration.
type Pattern string

// The configurations analysed by the paper.
const (
	PatternDDDU     Pattern = "DDDU"      // the §7 testbed pattern
	PatternDM       Pattern = "DM"        // the only feasible minimal Common Configuration
	PatternMU       Pattern = "MU"        //
	PatternDU       Pattern = "DU"        //
	PatternMiniSlot Pattern = "mini-slot" // non-slot-based scheduling
	PatternFDD      Pattern = "FDD"       // paired full-duplex carriers
)

// SlotScale selects the numerology by slot duration.
type SlotScale int

const (
	Slot1ms    SlotScale = iota // µ0, 15 kHz
	Slot0p5ms                   // µ1, 30 kHz (the testbed)
	Slot0p25ms                  // µ2, 60 kHz (the URLLC enabler in FR1)
	Slot125us                   // µ3, 120 kHz (FR2)
)

func (s SlotScale) mu() nr.Numerology {
	switch s {
	case Slot1ms:
		return nr.Mu0
	case Slot0p5ms:
		return nr.Mu1
	case Slot0p25ms:
		return nr.Mu2
	case Slot125us:
		return nr.Mu3
	default:
		return nr.Mu1
	}
}

// RadioKind selects the radio-head front-haul.
type RadioKind int

const (
	RadioUSB2 RadioKind = iota // USRP B210 over USB 2.0 (the testbed)
	RadioUSB3                  // USRP B210 over USB 3.0
	RadioPCIe                  // PCIe SDR
	RadioNone                  // ideal radio (no bus/conversion cost)
)

// ScenarioConfig configures a full-system simulation.
type ScenarioConfig struct {
	Pattern   Pattern
	SlotScale SlotScale
	GrantFree bool
	Radio     RadioKind

	// CGUnits shares the grant-free allocation: each UL slot carries
	// CGUnits contention units, every grant-free transmission picks one at
	// random, and two UEs on the same unit collide and retry after a
	// random backoff (resolved in-sim). 0 keeps the legacy dedicated
	// allocation with no contention. Only meaningful with GrantFree.
	CGUnits int

	// CGBackoffSlots is the collision backoff window in UL opportunities;
	// 0 → 8. Only meaningful with CGUnits > 0.
	CGBackoffSlots int

	// RoundRobin orders eligible SRs round-robin across UEs at each
	// scheduling tick instead of strict SR-reception order — the fairness
	// a many-UE cell needs so one backlogged UE cannot capture every UL
	// slot.
	RoundRobin bool

	// RTKernel applies a PREEMPT_RT OS-jitter profile (§6 mitigation).
	RTKernel bool

	// SNRdB is the static AWGN channel SNR; 0 → 25 dB.
	SNRdB float64

	// UEs is the processing-load UE count; 0 → 1.
	UEs int

	// Seed makes runs reproducible; runs with equal seeds are identical.
	Seed uint64

	// Deadline, when positive, audits every packet against this one-way
	// latency budget (use 500µs for the paper's URLLC bound): the obs
	// registry gains pkt.deadline_met / pkt.deadline_miss counters plus
	// budget.miss.<source> attribution of each miss to its dominant
	// latency source. Zero keeps the run unaudited.
	Deadline time.Duration

	// Obs, when non-nil, collects structured per-packet spans, named
	// counters/gauges and slot-aligned metric snapshots during the run;
	// export them with the internal/obs writers (JSONL, Chrome
	// trace-event JSON for Perfetto, CSV). Nil disables observability at
	// near-zero cost and changes nothing about the simulation.
	Obs *obs.Recorder
}

// PacketResult is the fate of one offered packet: its id, direction,
// delivery, one-way latency, transmission attempts and journey time per
// latency source. ProtocolShare, ProcessingShare and RadioShare split the
// journey across the paper's three latency sources (fractions of the
// accounted time). It is the simulator's own verdict record, not a copy.
type PacketResult = node.Result

// Scenario is a configured, runnable system.
type Scenario struct {
	sys *node.System
	cfg ScenarioConfig
}

// NewScenario builds a scenario.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	mu := cfg.SlotScale.mu()
	grid, ulGrid, err := buildGrids(cfg.Pattern, mu)
	if err != nil {
		return nil, err
	}
	var head *radio.Head
	switch cfg.Radio {
	case RadioUSB2:
		head = radio.B210(radio.USB2())
	case RadioUSB3:
		head = radio.B210(radio.USB3())
	case RadioPCIe:
		head = radio.LowLatencySDR()
	case RadioNone:
		head = nil
	default:
		return nil, fmt.Errorf("urllcsim: unknown radio kind %d", cfg.Radio)
	}
	if head != nil && cfg.RTKernel {
		head.Bus.Jitter = proc.RTKernel()
	}
	snr := cfg.SNRdB
	if snr == 0 {
		snr = 25
	}
	fairness := sched.FairFIFO
	if cfg.RoundRobin {
		fairness = sched.FairRoundRobin
	}
	sys, err := node.NewSystem(node.Config{
		Grid:           grid,
		ULGrid:         ulGrid,
		GrantFree:      cfg.GrantFree,
		CGUnits:        cfg.CGUnits,
		CGBackoffSlots: cfg.CGBackoffSlots,
		GNBRadio:       head,
		Channel:        channel.AWGN{SNR: snr},
		MarginSlots:    1, // the §7 one-slot radio-readiness lead
		HARQMaxTx:      3,
		CoreLatency:    30 * time.Microsecond,
		NUEs:           cfg.UEs,
		PayloadBytes:   32,
		Seed:           cfg.Seed,
		Fairness:       fairness,
		Deadline:       sim.Duration(cfg.Deadline),
		Obs:            cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	return &Scenario{sys: sys, cfg: cfg}, nil
}

// Validate reports whether p builds a slot grid at slot scale s: a named
// pattern, or a custom D/U/S string the standard allows at that numerology.
// NewScenario fails with the same error, so a CLI can reject a bad pattern
// before any run.
func (p Pattern) Validate(s SlotScale) error {
	_, _, err := buildGrids(p, s.mu())
	return err
}

func buildGrids(p Pattern, mu nr.Numerology) (grid, ulGrid *nr.Grid, err error) {
	switch p {
	case PatternDDDU, "":
		g, err := nr.BuildGrid(nr.CommonConfig{Mu: mu, Pattern1: nr.PatternDDDU(mu)}, 2, "DDDU")
		return g, nil, err
	case PatternDM:
		g, err := nr.BuildGrid(nr.CommonConfig{Mu: mu, Pattern1: nr.PatternDM(mu, 6, 6)}, 0, "DM")
		return g, nil, err
	case PatternMU:
		g, err := nr.BuildGrid(nr.CommonConfig{Mu: mu, Pattern1: nr.PatternMU(mu, 6, 6)}, 0, "MU")
		return g, nil, err
	case PatternDU:
		g, err := nr.BuildGrid(nr.CommonConfig{Mu: mu, Pattern1: nr.PatternDU(mu)}, 2, "DU")
		return g, nil, err
	case PatternMiniSlot:
		kinds := make([]nr.SymbolKind, nr.SymbolsPerSlot)
		for i := range kinds {
			kinds[i] = nr.SymFlexible
		}
		g, err := nr.MiniSlotGrid(nr.MiniSlotConfig{Mu: mu, Length: 2}, kinds, "mini-slot")
		return g, nil, err
	case PatternFDD:
		return nr.UniformGrid(mu, nr.SymDL, "FDD-DL"), nr.UniformGrid(mu, nr.SymUL, "FDD-UL"), nil
	default:
		// Any other string is parsed as a custom slot pattern: one letter
		// per slot, D/U/S — e.g. "DDSU", "DDDSUU". The mixed slot gets a
		// 6/2/6 split; direct D→U transitions steal 2 guard symbols.
		g, err := nr.ParseGrid(string(p), mu, 6, 6, 2)
		if err != nil {
			return nil, nil, fmt.Errorf("urllcsim: pattern %q: %w", p, err)
		}
		return g, nil, nil
	}
}

// Engine exposes the scenario's discrete-event engine, for self-profiling
// (internal/obs/prof attaches to it) and engine-level throughput metrics
// (Steps, Pushes, Pending). The returned engine is the live simulation
// core: callers may observe it but must not schedule or run it directly.
func (s *Scenario) Engine() *sim.Engine { return s.sys.Eng }

// SendUplink offers one UL packet of the given size at the given virtual
// time. Returns the packet id.
func (s *Scenario) SendUplink(at time.Duration, bytes int) int {
	return s.SendUplinkFrom(0, at, bytes)
}

// SendUplinkFrom is SendUplink with the packet attributed to logical UE ue.
// Attribution labels metrics, outcomes and the slot ledger only — it
// changes no scheduling or channel decision, so results are identical
// however packets are spread across UEs. ue must not be negative (it
// panics), and ids should be dense, 0…n−1: a grant-free scenario keeps one
// contention stream for every id up to the largest used.
func (s *Scenario) SendUplinkFrom(ue int, at time.Duration, bytes int) int {
	return s.sys.OfferULAs(ue, sim.Time(at), max(bytes, 13))
}

// SendDownlink offers one DL packet.
func (s *Scenario) SendDownlink(at time.Duration, bytes int) int {
	return s.SendDownlinkFrom(0, at, bytes)
}

// SendDownlinkFrom is SendDownlink attributed to logical UE ue (label only,
// like SendUplinkFrom).
func (s *Scenario) SendDownlinkFrom(ue int, at time.Duration, bytes int) int {
	return s.sys.OfferDLAs(ue, sim.Time(at), max(bytes, 13))
}

// Run advances virtual time to the horizon and returns the resolved packet
// results so far, in resolution order. The slice is the scenario's own
// record, clipped so that packets resolved by a later Run never show
// through it. A later Run returns the same elements first, so a caller that
// sorts or edits them should clone the slice.
func (s *Scenario) Run(horizon time.Duration) []PacketResult {
	s.sys.Eng.Run(sim.Time(horizon))
	return slices.Clip(s.sys.Results())
}

// Journey renders packet id's Fig. 3-style journey table from the spans
// the scenario's recorder (ScenarioConfig.Obs) retained for it. It fails
// when no recorder is attached, or when the packet's spans were not
// retained (retention off, sampled out, or no such packet).
func (s *Scenario) Journey(id int) (string, error) {
	if s.cfg.Obs == nil {
		return "", fmt.Errorf("urllcsim: journey of packet %d needs a recorder (ScenarioConfig.Obs)", id)
	}
	spans := s.cfg.Obs.PacketSpans(id)
	if len(spans) == 0 {
		return "", fmt.Errorf("urllcsim: no retained spans for packet %d (retention off or sampled out)", id)
	}
	return obs.JourneyTable(spans), nil
}

// RadioMisses returns how often the gNB missed a slot because processing
// plus sample submission outran the scheduler margin (§4).
func (s *Scenario) RadioMisses() int { return s.sys.Counters().RadioMisses }

// PHYLosses returns the transport blocks lost on air.
func (s *Scenario) PHYLosses() int { return s.sys.Counters().PHYLosses }

// SRsSent returns the number of scheduling requests transmitted.
func (s *Scenario) SRsSent() int { return s.sys.Counters().SRsSent }

// GrantsIssued returns the number of SR→grant handshakes completed.
func (s *Scenario) GrantsIssued() int { return s.sys.Counters().GrantsIssued }

// CGCollisions returns the number of grant-free transport blocks lost to a
// shared-contention-unit collision (CGUnits > 0).
func (s *Scenario) CGCollisions() int { return s.sys.Counters().CGCollisions }

// LayerStat returns the measured (mean µs, std µs, n) of a gNB layer:
// "SDAP", "PDCP", "RLC", "RLC-q", "MAC", "PHY" — the columns of Table 2.
func (s *Scenario) LayerStat(layer string) (mean, std float64, n int64, err error) {
	a, ok := s.sys.LayerStats()[layer]
	if !ok {
		return 0, 0, 0, fmt.Errorf("urllcsim: unknown layer %q", layer)
	}
	return a.Mean(), a.Std(), a.N(), nil
}
