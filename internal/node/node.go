// Package node composes the full simulated system: a gNB (scheduler, stack,
// radio head), one or more UEs (modem stack), the radio channel and the UPF,
// all driven by the discrete-event engine. It reproduces the paper's §7
// demonstration: one-way DL and UL latency distributions under grant-based
// and grant-free access (Fig. 6) and the per-layer processing/queueing
// times of Table 2, with the RLC queueing time *emerging* from the
// once-per-slot scheduler rather than being sampled.
package node

import (
	"fmt"
	"slices"

	"urllcsim/internal/channel"
	"urllcsim/internal/core"
	"urllcsim/internal/corenet"
	"urllcsim/internal/crypto5g"
	"urllcsim/internal/metrics"
	"urllcsim/internal/modulation"
	"urllcsim/internal/nr"
	"urllcsim/internal/obs"
	"urllcsim/internal/pdu"
	"urllcsim/internal/proc"
	"urllcsim/internal/radio"
	"urllcsim/internal/sched"
	"urllcsim/internal/sim"
	"urllcsim/internal/stack"
)

// Every system runs one carrier at one MCS: MCS index 10 over 106 PRBs, the
// N_RB of a 40 MHz channel at 30 kHz (TS 38.101-1 Table 5.3.2-1).
const (
	mcsIndex    = 10
	carrierPRBs = 106
)

// Config parameterises one full system.
type Config struct {
	// Grid is the TDD timeline (DL and UL share it; FDD systems pass
	// ULGrid separately).
	Grid   *nr.Grid
	ULGrid *nr.Grid // nil → Grid

	// GrantFree selects configured grants instead of the SR/grant
	// handshake for UL.
	GrantFree bool

	// CGUnits shares the grant-free allocation between UEs: each UL slot
	// carries CGUnits contention units and every grant-free transmission
	// picks one at random; two or more UEs on the same (slot, unit) is a
	// CRC-style collision — all of them lose the TB and retry after a
	// random backoff (the in-sim form of §9's grant-free scalability
	// problem). 0 keeps the legacy dedicated allocation with no contention.
	CGUnits int

	// CGBackoffSlots is the collision backoff window: a collided UE skips
	// a uniform number of UL opportunities in [0, CGBackoffSlots) before
	// retransmitting. Only meaningful with CGUnits > 0; 0 → 8.
	CGBackoffSlots int

	// Fairness orders eligible SRs at each scheduling tick (sched.FairFIFO
	// default; sched.FairRoundRobin for many-UE cells).
	Fairness sched.Fairness

	GNBProfile *proc.Profile
	UEProfile  *proc.Profile

	// GNBRadio is the SDR head at the gNB (the paper's B210). UERadio nil
	// models an integrated modem whose RF cost is inside the UE profile.
	GNBRadio *radio.Head

	Channel channel.Model

	// MarginSlots is the scheduler's radio-readiness lead (§4/§7).
	MarginSlots int

	// TickLead advances each scheduling instant by a sub-slot amount: the
	// decision for slot b is taken at b−TickLead. A hardware-accelerated
	// gNB needs only tens of microseconds of lead instead of a whole slot
	// (§5: "ASIC-based processing and radio transmission can potentially
	// achieve them"). Zero keeps decisions on the slot boundary.
	TickLead sim.Duration

	// HARQMaxTx bounds transmissions per packet (1 = no retransmission).
	HARQMaxTx int

	// CoreLatency is the gNB↔UPF forwarding cost per direction.
	CoreLatency sim.Duration

	// Deadline, when positive, audits every finished packet against this
	// one-way latency budget (the paper's 0.5 ms URLLC bound): packets
	// delivered in time count into pkt.deadline_met, late or lost ones into
	// pkt.deadline_miss plus a budget.miss.<source> counter naming the
	// journey's dominant latency source (Fig. 3 taxonomy). Zero disables
	// the verdict counters; obs.Outcome records are emitted regardless.
	Deadline sim.Duration

	// NUEs scales processing load (§7: more UEs, more processing).
	NUEs int

	// Obs, when non-nil, receives structured spans for every journey
	// segment, named counters/gauges for system events, and slot-aligned
	// metric snapshots. Nil disables observability at near-zero cost.
	Obs *obs.Recorder

	PayloadBytes int
	Seed         uint64
}

func (c *Config) setDefaults() error {
	if c.Grid == nil {
		return fmt.Errorf("node: nil grid")
	}
	if c.ULGrid == nil {
		c.ULGrid = c.Grid
	}
	if c.GNBProfile == nil {
		c.GNBProfile = proc.GNBTable2Profile()
	}
	if c.UEProfile == nil {
		c.UEProfile = proc.UEModemProfile()
	}
	if c.Channel == nil {
		c.Channel = channel.AWGN{SNR: 25}
	}
	if c.HARQMaxTx <= 0 {
		c.HARQMaxTx = 1
	}
	if c.NUEs <= 0 {
		c.NUEs = 1
	}
	if c.CGUnits > 0 && c.CGBackoffSlots <= 0 {
		c.CGBackoffSlots = 8
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 32
	}
	return nil
}

// Result is the fate of one offered packet: the one verdict record the
// system stores per packet, which the root package exposes as PacketResult.
type Result struct {
	ID        int
	Uplink    bool
	Delivered bool
	Latency   sim.Duration
	// BySource is the journey time per latency source (the paper's three
	// Fig. 3 categories).
	BySource core.Tally
	Attempts int
}

// ProtocolShare is the fraction of the accounted journey time spent on
// protocol waits; 0 when nothing was accounted.
func (r Result) ProtocolShare() float64 { return r.share(core.Protocol) }

// ProcessingShare is the fraction spent in per-layer processing.
func (r Result) ProcessingShare() float64 { return r.share(core.Processing) }

// RadioShare is the fraction spent in the radio head.
func (r Result) RadioShare() float64 { return r.share(core.Radio) }

func (r Result) share(src core.Source) float64 {
	tot := float64(r.BySource.Total())
	if tot > 0 {
		return float64(r.BySource[src]) / tot
	}
	return 0
}

// Counters aggregates system-level events.
type Counters struct {
	RadioMisses  int // gNB missed a slot because processing+submission ran long (§4)
	PHYLosses    int // transport blocks lost on air
	SRsSent      int
	GrantsIssued int
	CGCollisions int // grant-free TBs lost to a shared-unit collision
}

// System is one running simulation.
type System struct {
	Eng *sim.Engine
	cfg Config

	rng      *sim.RNG
	sch      *sched.Scheduler
	mcs      modulation.MCS
	phyDL    *stack.PHY
	phyUL    *stack.PHY
	upf      *corenet.UPF
	gnbTun   *corenet.GNBTunnel
	counters Counters

	// gNB DL data plane.
	gnbSDAP *stack.SDAP
	gnbPDCP *stack.PDCP
	gnbRLC  *stack.RLC
	gnbMAC  *stack.MAC
	// UE DL receive side.
	ueSDAPRx *stack.SDAP
	uePDCPRx *stack.PDCP
	ueRLCRx  *stack.RLC
	ueMACRx  *stack.MAC
	// UE UL data plane.
	ueSDAP *stack.SDAP
	uePDCP *stack.PDCP
	ueRLC  *stack.RLC
	ueMAC  *stack.MAC
	// gNB UL receive side.
	gnbSDAPRx *stack.SDAP
	gnbPDCPRx *stack.PDCP
	gnbRLCRx  *stack.RLC
	gnbMACRx  *stack.MAC

	// dlItems holds the arrived, unresolved DL packets by id. It and the
	// grant-free and ping maps below are built on first use: a system
	// without DL, contention or pings never allocates them.
	dlItems map[int]*dlPacket

	// pendingSRPackets pairs issued grants back to the UL packets whose SRs
	// triggered them, matched by (UE, SR-reception instant).
	pendingSRPackets []*ulPacket

	// cgReg registers grant-free transmissions per (UL slot, contention
	// unit) so collisions resolve in-sim. Only populated when
	// Config.CGUnits > 0; bookings of ended slots are swept lazily on
	// registration, so it holds only the few slots not yet over.
	cgReg  []cgBooking
	cgFree [][]int // swept unit counts, reused by cgRegister
	// cgRNGs drive each UE's unit pick and collision backoff, indexed by
	// UE. Seeded from (Seed, UE) alone — independent of the main
	// channel/processing stream and of how many UEs are active.
	cgRNGs []sim.RNG

	// Table 2 instrumentation: the gNB layers' processing times, indexed by
	// proc.Layer, and the emergent RLC queueing wait (RLC-q).
	layerStats [len(gnbTimingName)]metrics.Accumulator
	rlcQStats  metrics.Accumulator

	// obs is the structured observability sink (nil when disabled); h holds
	// its pre-resolved metric handles (zero handles when disabled), and the
	// scratch fields below are per-tick workspaces reused across slots so
	// the gnb.tick bookkeeping path allocates nothing at steady state.
	obs       *obs.Recorder
	h         obsHandles
	tickItems []sched.DLItem
	takeBuf   []obs.SlotUETake

	// tickAt is the boundary of the gNB ticker's one pending scheduling
	// instant (the System is the ticker's handler).
	tickAt sim.Time

	// Packet contexts are carved from these chunks (carve), and app is the
	// one buffer stamp writes application bytes into.
	ulChunk []ulPacket
	dlChunk []dlPacket
	app     []byte

	// DL data-plane workspaces: pooled transport-block contexts, and
	// transmitDL's and dlDecode's per-block scratch.
	tbFree []*dlTB
	dlEnc  []byte
	dlPDUs [][]byte
	dlOK   []bool
	// harqActive counts transport blocks launched on air and not yet
	// resolved (the in-flight HARQ process gauge).
	harqActive int

	nextID  int
	results []Result

	// Ping bookkeeping (OfferPing).
	pings    []*pingCtx
	pingByUL map[int]*pingCtx // request's UL packet id → ping
	pingByDL map[int]*pingCtx // reply's DL packet id → ping
}

// dlPacket tracks one DL packet from the UPF to the UE. Like ulPacket it
// carries a size, and its bytes are stamped on each transmission.
type dlPacket struct {
	s        *System
	id       int
	ue       int // logical UE this packet belongs to (attribution only)
	size     int // application bytes
	offered  sim.Time
	enqueued sim.Time // RLC queue entry (RLC-q starts here)
	attempts int
	by       core.Tally // journey time per latency source, folded by seg
	done     bool       // finishDL ran: later resolutions are ignored
	next     dlStep     // the pending event, until the packet is queued
}

// Offered packets wait in the engine's arrival lane as {kind, id, ue,
// size} records; a packet's context is built only when it arrives.
const (
	arriveUL uint8 = iota // at the UE (ulArrive)
	arriveDL              // at the UPF (dlArrive)
)

// arrivalName is each arrival kind's engine event name.
var arrivalName = []string{arriveUL: "ul.offer", arriveDL: "dl.offer"}

// Arrive implements sim.ArrivalHandler: an offered packet arrives.
func (s *System) Arrive(a sim.Arrival) {
	if a.Kind == arriveUL {
		s.ulArrive(a)
	} else {
		s.dlArrive(a)
	}
}

// ctxChunk is how many packet contexts one allocation holds.
const ctxChunk = 8

// carve returns the next zeroed context of *chunk, allocating a fresh chunk
// of ctxChunk when it is used up. A context is never reused: the collector
// frees a chunk once its last packet is unreachable, so a finished packet
// needs no lifetime bookkeeping, and a resolution that reaches it late
// still finds it done.
func carve[T any](chunk *[]T) *T {
	if len(*chunk) == 0 {
		*chunk = make([]T, ctxChunk)
	}
	p := &(*chunk)[0]
	*chunk = (*chunk)[1:]
	return p
}

// stamp writes the application bytes of packet id, attributed to UE ue,
// into the System's one buffer and returns them: size bytes that are a pure
// function of (id, ue, size), so a packet carries only its size, and the
// receive side checks the bytes it decodes against the stamp of the packet
// they are credited to. The bytes are valid until the next stamp.
func (s *System) stamp(id, ue, size int) []byte {
	b := slices.Grow(s.app[:0], size)[:size]
	key := sim.SplitMix64(uint64(id)) ^ uint64(ue)
	var w uint64
	for i := range b {
		if i%8 == 0 {
			w = sim.SplitMix64(key + uint64(i))
		}
		b[i] = byte(w >> (8 * (i % 8)))
	}
	s.app = b
	return b
}

// NewSystem builds a system from the config.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	mcs, err := modulation.MCSByIndex(mcsIndex)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)

	// One slot's transport block size: 12 data symbols of the carrier's
	// PRBs, the same in both directions.
	slotBytes := 1000
	if size, err := modulation.TBS(modulation.TBSParams{
		PRBs: carrierPRBs, Symbols: 12, DMRSPerPRB: 12, Layers: 1, MCS: mcs,
	}); err == nil {
		slotBytes = size / 8
	}
	sch, err := sched.New(sched.Config{
		Grid:        cfg.Grid,
		ULGrid:      cfg.ULGrid,
		MarginSlots: cfg.MarginSlots,
		DLSlotBytes: slotBytes,
		ULSlotBytes: slotBytes,
		GrantBytes:  cfg.PayloadBytes + 64,
		Fairness:    cfg.Fairness,
	})
	if err != nil {
		return nil, err
	}

	ck := make([]byte, 16)
	ik := make([]byte, 16)
	for i := range ck {
		ck[i] = byte(cfg.Seed) + byte(i)
		ik[i] = byte(cfg.Seed>>8) ^ byte(0xA5+i)
	}
	newPDCP := func(dir crypto5g.Direction) *stack.PDCP {
		return &stack.PDCP{
			SNBits: pdu.PDCPSN12, Bearer: 1, Direction: dir,
			CipherKey: ck, IntegKey: ik,
		}
	}

	s := &System{
		Eng:       sim.NewEngine(),
		cfg:       cfg,
		rng:       rng,
		sch:       sch,
		mcs:       mcs,
		upf:       corenet.NewUPF(0x42),
		gnbTun:    &corenet.GNBTunnel{TEID: 0x42},
		gnbSDAP:   &stack.SDAP{QFI: 1, Downlink: true},
		ueSDAPRx:  &stack.SDAP{QFI: 1, Downlink: true},
		ueSDAP:    &stack.SDAP{QFI: 1},
		gnbSDAPRx: &stack.SDAP{QFI: 1},
		gnbPDCP:   newPDCP(crypto5g.Downlink),
		uePDCPRx:  newPDCP(crypto5g.Downlink),
		uePDCP:    newPDCP(crypto5g.Uplink),
		gnbPDCPRx: newPDCP(crypto5g.Uplink),
		gnbRLC:    stack.NewRLC(),
		ueRLCRx:   stack.NewRLC(),
		ueRLC:     stack.NewRLC(),
		gnbRLCRx:  stack.NewRLC(),
		gnbMAC:    &stack.MAC{LCID: 4},
		ueMACRx:   &stack.MAC{LCID: 4},
		ueMAC:     &stack.MAC{LCID: 4},
		gnbMACRx:  &stack.MAC{LCID: 4},
		obs:       cfg.Obs,
	}
	s.h = newObsHandles(s.obs)
	s.phyDL = stack.NewPHY(mcs, cfg.Channel, rng.Fork(1))
	s.phyUL = stack.NewPHY(mcs, cfg.Channel, rng.Fork(2))
	s.Eng.HandleArrivals(s, arrivalName)
	s.scheduleTick(s.cfg.Grid.NextSchedBoundary(-1))
	return s, nil
}
