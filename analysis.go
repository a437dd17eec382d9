package urllcsim

import (
	"fmt"
	"time"

	"urllcsim/internal/core"
	"urllcsim/internal/nr"
	"urllcsim/internal/sim"
)

// Mode is a transmission procedure: the rows of the paper's Table 1.
type Mode int

const (
	GrantBasedUplink Mode = iota
	GrantFreeUplink
	DownlinkMode
)

func (m Mode) core() core.AccessMode {
	switch m {
	case GrantBasedUplink:
		return core.GrantBasedUL
	case GrantFreeUplink:
		return core.GrantFreeUL
	default:
		return core.Downlink
	}
}

// URLLCDeadline is the 0.5 ms one-way requirement of the paper's §1.
const URLLCDeadline = 500 * time.Microsecond

// SixGDeadline is the 0.1 ms one-way 6G target (§1/§9).
const SixGDeadline = 100 * time.Microsecond

// AnalysisOptions tunes the worst-case engine (all optional).
type AnalysisOptions struct {
	// ProcessingUE/ProcessingGNB add per-node processing terms (§4's
	// processing latency).
	ProcessingUE, ProcessingGNB time.Duration
	// RadioLatency adds a per-transmission radio term (§4's radio latency).
	RadioLatency time.Duration
	// MarginSlots delays every scheduled transmission (§4/§7).
	MarginSlots int
}

func (o AnalysisOptions) assumptions() core.Assumptions {
	as := core.DefaultAssumptions()
	as.UEProc = sim.Duration(o.ProcessingUE)
	as.GNBProc = sim.Duration(o.ProcessingGNB)
	as.RadioLatency = sim.Duration(o.RadioLatency)
	as.MarginSlots = o.MarginSlots
	return as
}

func analysisConfig(p Pattern, scale SlotScale, as core.Assumptions) (cfg core.Config, err error) {
	// The core constructors panic on standard-violating combinations (e.g.
	// DDDU at µ0 needs a 4 ms period, which TS 38.331 does not allow);
	// surface those as errors at the public API.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("urllcsim: invalid configuration %s at %v: %v", p, scale.mu(), r)
		}
	}()
	mu := scale.mu()
	switch p {
	case PatternDM:
		return core.ConfigDM(mu, as), nil
	case PatternMU:
		return core.ConfigMU(mu, as), nil
	case PatternDU:
		return core.ConfigDU(mu, as), nil
	case PatternDDDU, "":
		return core.ConfigDDDU(mu, as), nil
	case PatternMiniSlot:
		return core.ConfigMiniSlot(mu, as), nil
	case PatternFDD:
		return core.ConfigFDD(mu, as), nil
	default:
		// Custom slot-pattern strings work here too (cf. NewScenario).
		g, gerr := nr.ParseGrid(string(p), mu, 6, 6, 2)
		if gerr != nil {
			return core.Config{}, errUnknownPattern(p)
		}
		return core.Config{Name: string(p), DL: g, UL: g, As: as}, nil
	}
}

type errUnknownPattern Pattern

func (e errUnknownPattern) Error() string { return "urllcsim: unknown pattern " + string(e) }

// WorstCaseLatency computes the analytic worst-case one-way latency of a
// configuration under the given mode — the engine behind the paper's Fig. 4
// and Table 1.
func WorstCaseLatency(p Pattern, scale SlotScale, m Mode, opts AnalysisOptions) (time.Duration, error) {
	cfg, err := analysisConfig(p, scale, opts.assumptions())
	if err != nil {
		return 0, err
	}
	j, err := cfg.WorstCase(m.core())
	if err != nil {
		return 0, err
	}
	return time.Duration(j.Latency()), nil
}

// MeetsURLLC reports whether the configuration's worst case fits the 0.5 ms
// deadline.
func MeetsURLLC(p Pattern, scale SlotScale, m Mode, opts AnalysisOptions) (bool, error) {
	wc, err := WorstCaseLatency(p, scale, m, opts)
	if err != nil {
		return false, err
	}
	return wc <= URLLCDeadline, nil
}

// FeasibilityCell is one entry of the Table 1 matrix.
type FeasibilityCell struct {
	Pattern Pattern
	Mode    Mode
	Worst   time.Duration
	Meets   bool
}

// Table1 evaluates the paper's Table 1 (five minimal configurations × three
// modes at µ2 against 0.5 ms) and returns all 15 cells.
func Table1() ([]FeasibilityCell, error) {
	m, err := core.Table1()
	if err != nil {
		return nil, err
	}
	var out []FeasibilityCell
	patterns := map[string]Pattern{
		"DU": PatternDU, "DM": PatternDM, "MU": PatternMU,
		"Mini-slot": PatternMiniSlot, "FDD": PatternFDD,
	}
	modes := map[core.AccessMode]Mode{
		core.GrantBasedUL: GrantBasedUplink,
		core.GrantFreeUL:  GrantFreeUplink,
		core.Downlink:     DownlinkMode,
	}
	for name, p := range patterns {
		for cm, mm := range modes {
			v, ok := m.Verdict(name, cm)
			if !ok {
				continue
			}
			out = append(out, FeasibilityCell{
				Pattern: p, Mode: mm,
				Worst: time.Duration(v.Worst), Meets: v.Meets,
			})
		}
	}
	return out, nil
}

// MinimumFR1Slot returns the shortest FR1 slot duration (0.25 ms — the §5
// observation that only µ2 can feasibly achieve URLLC in sub-6 GHz).
func MinimumFR1Slot() time.Duration {
	best := time.Duration(1 << 62)
	for mu := nr.Mu0; mu <= nr.Mu6; mu++ {
		if mu.SupportedIn(nr.FR1) && time.Duration(mu.SlotDuration()) < best {
			best = time.Duration(mu.SlotDuration())
		}
	}
	return best
}
