package core

import (
	"fmt"

	"urllcsim/internal/nr"
	"urllcsim/internal/sim"
)

// AccessMode selects the transmission procedure under analysis — the three
// rows of Table 1.
type AccessMode int

const (
	// GrantBasedUL: the UE sends a Scheduling Request, waits for an UL
	// grant, then transmits (§3 steps ②–⑥).
	GrantBasedUL AccessMode = iota
	// GrantFreeUL: resources are pre-allocated; the UE transmits in the
	// next UL opportunity without a handshake.
	GrantFreeUL
	// Downlink: the gNB schedules and transmits DL data.
	Downlink
)

func (m AccessMode) String() string {
	switch m {
	case GrantBasedUL:
		return "grant-based UL"
	case GrantFreeUL:
		return "grant-free UL"
	case Downlink:
		return "DL"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Modes lists the Table 1 rows in order.
var Modes = []AccessMode{GrantBasedUL, GrantFreeUL, Downlink}

// Assumptions makes the worst-case model's choices explicit (cf. DESIGN.md).
// All durations default to zero for the protocol-only analysis of §5;
// the full-system analyses layer processing and radio terms on top.
type Assumptions struct {
	// ControlSymbols is the PDCCH length at the head of a DL region.
	ControlSymbols int
	// DataSymbols is the air time of the (small) URLLC payload.
	DataSymbols int
	// SRSymbols is the SR length (1 — "one bit", paper footnote 2).
	SRSymbols int
	// UEProc is charged before the UE can emit anything (APP↓ in Fig. 3),
	// and again between grant reception and UL transmission (with K2).
	UEProc sim.Duration
	// GNBProc is charged between SR reception and grant issuance, and on
	// DL data before scheduling (SDAP↓ in Fig. 3).
	GNBProc sim.Duration
	// K2 is the minimum grant→PUSCH delay of the UE.
	K2 sim.Duration
	// RadioLatency is added once per over-the-air transmission leg.
	RadioLatency sim.Duration
	// MarginSlots delays every gNB-scheduled transmission by whole slots to
	// let the radio prepare (§4's interdependency; §7's "always delayed for
	// one slot").
	MarginSlots int
	// SRPeriodSlots restricts SR opportunities to UL symbols of every n-th
	// slot (slot index divisible by n). The paper's §1 lists "period of
	// scheduling requests" among the configurations that affect latency;
	// TS 38.213 allows periodicities from 2 symbols up to 80 slots. 0 or 1
	// means every UL opportunity carries SR resources.
	SRPeriodSlots int
	// SROffsetSlots phase-shifts the SR occasions (slot index ≡ offset mod
	// period). Real deployments align the offset with UL slots; leaving it
	// 0 on a pattern whose slot 0 is DL makes SRs impossible — an error
	// the engine reports rather than hides.
	SROffsetSlots int
}

// DefaultAssumptions returns the protocol-only analysis settings used for
// Table 1: 2-symbol control, 2-symbol data, 1-symbol SR, no processing or
// radio terms.
func DefaultAssumptions() Assumptions {
	return Assumptions{ControlSymbols: 2, DataSymbols: 2, SRSymbols: 1}
}

// Config is one complete configuration under analysis. For TDD, DL and UL
// point at the same grid; for FDD they are distinct uniform grids.
type Config struct {
	Name string
	DL   *nr.Grid // where DL control and data may be transmitted
	UL   *nr.Grid // where SRs and UL data may be transmitted
	As   Assumptions
}

func (c Config) symbolDur() sim.Duration { return c.DL.Mu.SymbolDuration() }

// schedBoundaryAtOrAfter returns the first gNB scheduling instant ≥ t.
// Scheduling decisions happen on the DL grid's boundaries (the gNB is the
// scheduler; §2: "the scheduling task is done just once per slot").
func (c Config) schedBoundaryAtOrAfter(t sim.Time) sim.Time {
	return c.DL.NextSchedBoundary(t - 1)
}

// dlRegionAtOrAfter finds the earliest time ≥ t at which a contiguous run
// of needSyms DL-capable symbols begins at a symbol boundary. The search is
// aligned to symbol starts; scheduling alignment is the caller's job.
func dlRegionAtOrAfter(g *nr.Grid, t sim.Time, needSyms int) (sim.Time, error) {
	return regionAtOrAfter(g, t, nr.SymDL, needSyms)
}

func ulRegionAtOrAfter(g *nr.Grid, t sim.Time, needSyms int) (sim.Time, error) {
	return regionAtOrAfter(g, t, nr.SymUL, needSyms)
}

func regionAtOrAfter(g *nr.Grid, t sim.Time, kind nr.SymbolKind, needSyms int) (sim.Time, error) {
	if needSyms <= 0 {
		needSyms = 1
	}
	// Hop from run to run of kind. The grid repeats every period, so a long
	// enough run, if one exists, starts within a period of the first.
	i, ok := g.NextSymbolOfKind(t, kind)
	for end := i + int64(g.NumSymbols()); ok && i < end; {
		run := g.RunOfKind(i, kind)
		if run >= needSyms {
			return g.SymbolStart(i), nil
		}
		i, ok = g.NextSymbolOfKind(g.SymbolStart(i+int64(run)), kind)
	}
	return 0, fmt.Errorf("core: no %c region of %d symbols in %s", kind, needSyms, g.Label)
}

// Journey is the step-by-step worst-case walk of one packet — the material
// of Fig. 4. Times are absolute; Latency = Complete − Arrival.
type Journey struct {
	Mode     AccessMode
	Arrival  sim.Time
	SRStart  sim.Time // grant-based only
	GrantEnd sim.Time // grant-based only
	TxStart  sim.Time // data transmission start
	Complete sim.Time // data fully delivered (incl. radio term)
	Err      error
}

// Latency returns Complete − Arrival.
func (j Journey) Latency() sim.Duration { return j.Complete.Sub(j.Arrival) }

// Walk computes the deterministic delivery timeline of a packet arriving at
// the given time under mode m.
func (c Config) Walk(m AccessMode, arrival sim.Time) Journey {
	j := Journey{Mode: m, Arrival: arrival}
	sym := c.symbolDur()
	margin := sim.Duration(c.As.MarginSlots) * c.DL.Mu.SlotDuration()
	switch m {
	case Downlink:
		// gNB processes down to RLC, waits for the once-per-slot scheduler,
		// then transmits control+data in the first DL region with capacity.
		ready := arrival.Add(c.As.GNBProc)
		b := c.schedBoundaryAtOrAfter(ready).Add(margin)
		start, err := dlRegionAtOrAfter(c.DL, b, c.As.ControlSymbols+c.As.DataSymbols)
		if err != nil {
			j.Err = err
			return j
		}
		j.TxStart = start.Add(sim.Duration(c.As.ControlSymbols) * sym)
		j.Complete = j.TxStart.Add(sim.Duration(c.As.DataSymbols)*sym + c.As.RadioLatency)
	case GrantFreeUL:
		// Pre-allocated resources: the UE uses the next UL region that can
		// hold the data. No scheduler boundary is involved.
		ready := arrival.Add(c.As.UEProc)
		start, err := ulRegionAtOrAfter(c.UL, ready, c.As.DataSymbols)
		if err != nil {
			j.Err = err
			return j
		}
		j.TxStart = start
		j.Complete = start.Add(sim.Duration(c.As.DataSymbols)*sym + c.As.RadioLatency)
	case GrantBasedUL:
		// ① UE prepares the SR, ② transmits it in the next UL symbol run
		// that can hold it, ③④ the gNB decodes it and schedules the grant
		// at the next slot boundary, ⑤ the grant rides the next DL control
		// region, ⑥ the UE transmits in the next UL region after K2.
		ready := arrival.Add(c.As.UEProc)
		srStart, err := c.srOpportunityAtOrAfter(ready)
		if err != nil {
			j.Err = err
			return j
		}
		j.SRStart = srStart
		srEnd := srStart.Add(sim.Duration(c.As.SRSymbols)*sym + c.As.RadioLatency)
		b := c.schedBoundaryAtOrAfter(srEnd.Add(c.As.GNBProc)).Add(margin)
		grantRegion, err := dlRegionAtOrAfter(c.DL, b, c.As.ControlSymbols)
		if err != nil {
			j.Err = err
			return j
		}
		j.GrantEnd = grantRegion.Add(sim.Duration(c.As.ControlSymbols)*sym + c.As.RadioLatency)
		dataReady := j.GrantEnd.Add(c.As.K2 + c.As.UEProc)
		start, err := ulRegionAtOrAfter(c.UL, dataReady, c.As.DataSymbols)
		if err != nil {
			j.Err = err
			return j
		}
		j.TxStart = start
		j.Complete = start.Add(sim.Duration(c.As.DataSymbols)*sym + c.As.RadioLatency)
	default:
		j.Err = fmt.Errorf("core: unknown access mode %d", m)
	}
	return j
}

// srOpportunityAtOrAfter returns the first time ≥ t at which the UE may
// transmit an SR: a UL symbol run of SRSymbols, additionally restricted to
// every SRPeriodSlots-th slot when configured.
func (c Config) srOpportunityAtOrAfter(t sim.Time) (sim.Time, error) {
	period := c.As.SRPeriodSlots
	if period <= 1 {
		return ulRegionAtOrAfter(c.UL, t, c.As.SRSymbols)
	}
	slotNs := int64(c.UL.Mu.SlotDuration())
	cur := t
	// Bound the search: SR occasions recur within period slots of UL grid
	// cycles; 4× covers any phase.
	limit := t.Add(sim.Duration(4*period*c.UL.Slots()) * c.UL.Mu.SlotDuration())
	for cur <= limit {
		start, err := ulRegionAtOrAfter(c.UL, cur, c.As.SRSymbols)
		if err != nil {
			return 0, err
		}
		slotIdx := int64(start) / slotNs
		if slotIdx%int64(period) == int64(c.As.SROffsetSlots%period) {
			return start, nil
		}
		// Jump to the next slot boundary and retry.
		cur = sim.Time((slotIdx + 1) * slotNs)
	}
	return 0, fmt.Errorf("core: no SR occasion with period %d slots in %s", period, c.UL.Label)
}

// WorstCase scans arrival offsets across one configuration period and
// returns the journey with the maximum latency. The latency as a function
// of arrival time is piecewise linear with slope −1 between discontinuities
// at symbol boundaries, so the maximum lies just after a boundary; the scan
// probes every symbol start (±1 ns) plus mid-symbol points.
func (c Config) WorstCase(m AccessMode) (Journey, error) {
	period := c.DL.Period()
	if up := c.UL.Period(); up > period {
		period = up
	}
	// SR periodicity stretches the latency function's period: the worst
	// arrival may sit anywhere within one full SR cycle.
	if m == GrantBasedUL && c.As.SRPeriodSlots > 1 {
		srCycle := sim.Duration(c.As.SRPeriodSlots) * c.UL.Mu.SlotDuration()
		for period%srCycle != 0 {
			period += c.DL.Period()
		}
	}
	var worst Journey
	worst.Complete = -1
	probe := func(t sim.Time) error {
		if t < 0 {
			return nil
		}
		j := c.Walk(m, t)
		if j.Err != nil {
			return j.Err
		}
		if worst.Complete < 0 || j.Latency() > worst.Latency() {
			worst = j
		}
		return nil
	}
	nsyms := int64(period / c.symbolDur())
	for i := int64(0); i <= nsyms; i++ {
		start := c.DL.SymbolStart(i)
		for _, t := range []sim.Time{start, start + 1, start.Add(c.symbolDur() / 2)} {
			if err := probe(t); err != nil {
				return Journey{}, err
			}
		}
	}
	if worst.Complete < 0 {
		return Journey{}, fmt.Errorf("core: no feasible journey for %v in %s", m, c.Name)
	}
	return worst, nil
}
