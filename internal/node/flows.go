package node

import (
	"bytes"
	"slices"

	"urllcsim/internal/core"
	"urllcsim/internal/metrics"
	"urllcsim/internal/obs"
	"urllcsim/internal/proc"
	"urllcsim/internal/sched"
	"urllcsim/internal/sim"
	"urllcsim/internal/stack"
)

// Counter, gauge and timing names published to the obs registry. One flat
// namespace, dot-separated, so CSV/Perfetto consumers can filter by prefix.
const (
	cSlotsPlanned = "sched.slots_planned" // ticks that planned a DL-capable slot
	cGrantsIssued = "sched.grants_issued" // SR→grant handshakes completed
	cRadioMisses  = "sched.radio_misses"  // slots lost to late radio readiness (§4)
	cSRsSent      = "ul.srs_sent"
	cCGCollision  = "cg.collision" // grant-free TBs lost to a shared-unit collision
	cHARQRetx     = "harq.retx"
	cCRCFailures  = "phy.crc_failures" // transport blocks lost on air
	cRLCRxDrops   = "rlc.rx_drops"     // PDUs dropped in a receive chain
	cDelivered    = "pkt.delivered"
	cLost         = "pkt.lost"
	cDeadlineMet  = "pkt.deadline_met"  // delivered within Config.Deadline
	cDeadlineMiss = "pkt.deadline_miss" // delivered late or lost

	gRLCQueueDepth = "rlc.dl.queue_depth"
	gSRPending     = "sched.sr_pending"
	gHARQInflight  = "harq.inflight"

	tLatUL        = "lat.ul"
	tLatDL        = "lat.dl"
	tRLCQueueWait = "gnb.rlc_queue_wait"
)

// Labeled metric families: the per-UE/per-direction dimension of the flat
// names above. fPktByUE counts packet fates keyed (ue, dir, event); fLatByUE
// holds per-(ue, dir) delivered-latency HDR histograms — the inputs to the
// per-UE KPI pass (AoI, fairness, reliability CCDF). fSlotDLTake and
// fSlotULGrant gauge each UE's take of the most recent scheduling tick and
// are stamped only when the slot ledger is enabled, keeping the default hot
// path free of per-tick family traffic.
const (
	fPktByUE     = "pkt.by_ue"
	fLatByUE     = "lat.by_ue"
	fSlotDLTake  = "slot.ue_dl_take_bytes"
	fSlotULGrant = "slot.ue_ul_grant_bytes"
)

// missCounter attributes a deadline miss to the journey's dominant latency
// source, one counter per Fig. 3 category.
var missCounter = [core.NumSources]string{
	core.Protocol:   "budget.miss.protocol",
	core.Processing: "budget.miss.processing",
	core.Radio:      "budget.miss.radio",
}

// obsHandles batches every per-packet and per-slot metric the node layer
// records behind pre-resolved obs handles, replacing the name-keyed map
// lookups on the hot path. Handles resolve lazily on first use, so the
// registry's registration order — and therefore every summary, snapshot and
// export byte — is identical to the name-keyed form. Built from a nil
// recorder the whole struct is the disabled state: each record costs one
// comparison.
type obsHandles struct {
	slotsPlanned obs.CounterHandle
	grantsIssued obs.CounterHandle
	radioMisses  obs.CounterHandle
	srsSent      obs.CounterHandle
	cgCollision  obs.CounterHandle
	harqRetx     obs.CounterHandle
	crcFailures  obs.CounterHandle
	rlcRxDrops   obs.CounterHandle
	delivered    obs.CounterHandle
	lost         obs.CounterHandle
	deadlineMet  obs.CounterHandle
	deadlineMiss obs.CounterHandle
	missBySource [core.NumSources]obs.CounterHandle

	rlcQueueDepth obs.GaugeHandle
	srPending     obs.GaugeHandle
	harqInflight  obs.GaugeHandle

	latUL        obs.TimingHandle
	latDL        obs.TimingHandle
	rlcQueueWait obs.TimingHandle
	gnbProc      [len(gnbTimingName)]obs.TimingHandle
	ueProc       [len(ueTimingName)]obs.TimingHandle

	pktByUE     obs.CounterFamHandle[obs.PktEvent]
	latByUE     obs.HistFamHandle[obs.UEDir]
	slotDLTake  obs.GaugeFamHandle[obs.UEKey]
	slotULGrant obs.GaugeFamHandle[obs.UEKey]
}

func newObsHandles(r *obs.Recorder) obsHandles {
	h := obsHandles{
		slotsPlanned: r.CounterH(cSlotsPlanned),
		grantsIssued: r.CounterH(cGrantsIssued),
		radioMisses:  r.CounterH(cRadioMisses),
		srsSent:      r.CounterH(cSRsSent),
		cgCollision:  r.CounterH(cCGCollision),
		harqRetx:     r.CounterH(cHARQRetx),
		crcFailures:  r.CounterH(cCRCFailures),
		rlcRxDrops:   r.CounterH(cRLCRxDrops),
		delivered:    r.CounterH(cDelivered),
		lost:         r.CounterH(cLost),
		deadlineMet:  r.CounterH(cDeadlineMet),
		deadlineMiss: r.CounterH(cDeadlineMiss),

		rlcQueueDepth: r.GaugeH(gRLCQueueDepth),
		srPending:     r.GaugeH(gSRPending),
		harqInflight:  r.GaugeH(gHARQInflight),

		latUL:        r.TimingH(tLatUL),
		latDL:        r.TimingH(tLatDL),
		rlcQueueWait: r.TimingH(tRLCQueueWait),

		pktByUE:     obs.CounterFamH[obs.PktEvent](r, fPktByUE),
		latByUE:     obs.HistFamH[obs.UEDir](r, fLatByUE),
		slotDLTake:  obs.GaugeFamH[obs.UEKey](r, fSlotDLTake),
		slotULGrant: obs.GaugeFamH[obs.UEKey](r, fSlotULGrant),
	}
	for src, name := range missCounter {
		h.missBySource[src] = r.CounterH(name)
	}
	for l, name := range gnbTimingName {
		h.gnbProc[l] = r.TimingH(name)
	}
	for l, name := range ueTimingName {
		h.ueProc[l] = r.TimingH(name)
	}
	return h
}

// audit emits the packet's obs.Outcome, its per-UE labeled samples and, when
// a deadline is configured, its verdict against the one-way budget.
func (s *System) audit(id, ue int, dir obs.Dir, ok bool, lat sim.Duration, attempts int, by core.Tally) {
	s.obs.Outcome(obs.Outcome{Packet: id, UE: ue, Dir: dir, Delivered: ok, Latency: lat, Attempts: attempts, End: s.Eng.Now()})
	if ok {
		s.h.pktByUE.Add(obs.PktEvent{UE: ue, Dir: dir, Event: obs.FateDelivered}, 1)
		s.h.latByUE.Observe(obs.UEDir{UE: ue, Dir: dir}, lat)
	} else {
		s.h.pktByUE.Add(obs.PktEvent{UE: ue, Dir: dir, Event: obs.FateLost}, 1)
	}
	if s.cfg.Deadline <= 0 {
		return
	}
	if ok && lat <= s.cfg.Deadline {
		s.h.deadlineMet.Inc()
		s.h.pktByUE.Add(obs.PktEvent{UE: ue, Dir: dir, Event: obs.FateDeadlineMet}, 1)
		return
	}
	s.h.deadlineMiss.Inc()
	s.h.missBySource[by.Dominant()].Inc()
	s.h.pktByUE.Add(obs.PktEvent{UE: ue, Dir: dir, Event: obs.FateDeadlineMiss}, 1)
}

// gnbTimingName / ueTimingName map a processing layer to its obs timing
// name, precomputed so the hot path never concatenates strings.
var gnbTimingName = [...]string{
	proc.LayerSDAP: "gnb.proc.SDAP", proc.LayerPDCP: "gnb.proc.PDCP",
	proc.LayerRLC: "gnb.proc.RLC", proc.LayerMAC: "gnb.proc.MAC",
	proc.LayerPHY: "gnb.proc.PHY",
}
var ueTimingName = [...]string{
	proc.LayerSDAP: "ue.proc.SDAP", proc.LayerPDCP: "ue.proc.PDCP",
	proc.LayerRLC: "ue.proc.RLC", proc.LayerMAC: "ue.proc.MAC",
	proc.LayerPHY: "ue.proc.PHY",
}

// seg records one journey segment: it folds the duration into the packet's
// per-source tally and emits the structured span (packet id, direction,
// stack layer) that is the journey's only step-by-step record.
func (s *System) seg(by *core.Tally, id int, dir obs.Dir, layer obs.Layer,
	step string, src core.Source, start sim.Time, dur sim.Duration) {
	by.Add(src, dur)
	s.obs.PacketSpan(id, dir, layer, step, src, start, dur)
}

// harqLaunch / harqResolve maintain the in-flight HARQ process gauge: a
// transport block enters when scheduled on air and leaves when its packets
// are delivered, requeued or dropped.
func (s *System) harqLaunch(n int) {
	s.harqActive += n
	s.h.harqInflight.Set(float64(s.harqActive))
}

func (s *System) harqResolve(n int) {
	s.harqActive -= n
	s.h.harqInflight.Set(float64(s.harqActive))
}

// rlcQ abbreviates the stack's queue entry type in this file.
type rlcQ = stack.RLCQueued

// rlcQueued wraps a DL packet context as an RLC queue entry. The EnqueuedAt
// stamp survives radio-miss requeues so RLC-q keeps measuring from first
// entry.
func rlcQueued(p *dlPacket) rlcQ {
	return rlcQ{ID: p.id, Bytes: p.size, EnqueuedAt: p.enqueued}
}

// sample draws a gNB layer processing time and records it for Table 2.
func (s *System) sampleGNB(l proc.Layer) sim.Duration {
	d := s.cfg.GNBProfile.Sample(l, s.cfg.NUEs, s.rng)
	s.layerStats[l].AddDuration(d)
	s.h.gnbProc[l].Observe(d)
	return d
}

func (s *System) sampleUE(l proc.Layer) sim.Duration {
	d := s.cfg.UEProfile.Sample(l, 1, s.rng)
	s.h.ueProc[l].Observe(d)
	return d
}

// LayerStats returns the Table 2 accumulators (gNB layers plus emergent
// RLC-q), keyed by their Table 2 column names: "SDAP", "PDCP", "RLC",
// "RLC-q", "MAC", "PHY". The map is built per call; its accumulators are the
// system's own.
func (s *System) LayerStats() map[string]*metrics.Accumulator {
	m := make(map[string]*metrics.Accumulator, len(s.layerStats)+1)
	for _, l := range proc.Layers {
		m[l.String()] = &s.layerStats[l]
	}
	m["RLC-q"] = &s.rlcQStats
	return m
}

// Counters returns the system-level event counters.
func (s *System) Counters() Counters { return s.counters }

// Results returns the per-packet outcomes recorded so far.
func (s *System) Results() []Result { return s.results }

// record appends one packet's fate. Every offered packet resolves exactly
// once, so when the slice is full it grows to hold every packet offered so
// far rather than by a growth factor.
func (s *System) record(r Result) {
	if len(s.results) == cap(s.results) {
		s.results = slices.Grow(s.results, max(s.nextID-len(s.results), 1))
	}
	s.results = append(s.results, r)
}

// ---------------------------------------------------------------------------
// gNB slot ticker: the once-per-slot scheduler.
// ---------------------------------------------------------------------------

// scheduleTick arms the one pending scheduling instant, for boundary b. The
// System is the ticker's handler.
func (s *System) scheduleTick(b sim.Time) {
	fire := b.Add(-s.cfg.TickLead)
	if fire < s.Eng.Now() {
		fire = s.Eng.Now()
	}
	s.tickAt = b
	s.Eng.Schedule(fire, "gnb.tick", s)
}

// Fire implements sim.Handler for the gNB ticker: the scheduling instant
// for s.tickAt.
func (s *System) Fire() { s.tick(s.tickAt) }

func (s *System) tick(b sim.Time) {
	// Assemble the scheduler's view of the DL RLC queue, reusing last tick's
	// item slice (the scheduler only reads it within Tick).
	items := s.tickItems[:0]
	for _, q := range s.gnbRLC.Peek() {
		ue := 0
		if p := s.dlItems[q.ID]; p != nil {
			ue = p.ue
		}
		items = append(items, sched.DLItem{ID: q.ID, UE: ue, Bytes: q.Bytes, EnqueuedAt: q.EnqueuedAt})
	}
	s.tickItems = items
	s.h.rlcQueueDepth.Set(float64(len(items)))
	plan := s.sch.Tick(b, items)
	if plan.TargetDL != sim.Never {
		s.h.slotsPlanned.Inc()
	}

	if len(plan.DLPlanned) > 0 {
		// The scheduler consumed these from the RLC queue now: the RLC-q
		// waiting time of Table 2 ends at this instant.
		taken := s.gnbRLC.DequeueIDs(plan.DLPlanned)
		for _, q := range taken {
			wait := b.Sub(q.EnqueuedAt)
			s.rlcQStats.AddDuration(wait)
			s.h.rlcQueueWait.Observe(wait)
			if p := s.dlItems[q.ID]; p != nil {
				s.seg(&p.by, p.id, obs.DirDL, obs.LayerRLC,
					"⑨ RLC queue (SCHE wait)", core.Protocol, q.EnqueuedAt, wait)
				s.obs.Edge(obs.Edge{Packet: p.id, Dir: obs.DirDL, Kind: obs.EdgeSchedTake,
					Time: b, Ref: plan.TargetDL, Arg: int64(wait)})
			}
		}
		s.launchDL(b, plan, taken)
	}
	if n := len(plan.ULGrants); n > 0 {
		s.h.grantsIssued.Add(int64(n))
	}
	for _, g := range plan.ULGrants {
		s.counters.GrantsIssued++
		s.deliverGrant(plan.TargetDL, g)
	}
	s.h.srPending.Set(float64(s.sch.PendingSRs()))
	if s.obs.SlotLedgerEnabled() {
		s.stampSlot(b, plan, len(items))
	}
	// Snapshot the whole registry once per scheduling tick: the snapshot
	// series is slot-aligned by construction.
	s.obs.SlotSnapshot(b)
	s.scheduleTick(s.cfg.Grid.NextSchedBoundary(b))
}

// stampSlot turns one scheduling plan into a slot-ledger record and the
// per-UE take gauges. Only called when the ledger is enabled, so default
// runs pay a single bool check per tick.
func (s *System) stampSlot(b sim.Time, plan sched.Plan, queueDepth int) {
	rec := obs.SlotRecord{
		Boundary:     b,
		TargetDL:     plan.TargetDL,
		DLCapBytes:   plan.DLCapBytes,
		DLUsedBytes:  plan.DLUsedBytes,
		QueueDepth:   queueDepth,
		QueueTaken:   len(plan.DLPlanned),
		GrantsIssued: len(plan.ULGrants),
		SRsPending:   s.sch.PendingSRs(),
		SRsDeferred:  plan.SRsDeferred,
	}
	// One take per allocation and grant into the System's reused buffer,
	// sorted by UE and summed in place; the recorder copies the result, so
	// a ledger-enabled tick allocates nothing once the buffer has grown.
	takes := s.takeBuf[:0]
	for _, a := range plan.DLAllocs {
		takes = append(takes, obs.SlotUETake{UE: a.UE, DLBytes: a.Bytes, DLItems: len(a.ItemIDs)})
	}
	for _, g := range plan.ULGrants {
		rec.ULGrantBytes += g.Bytes
		takes = append(takes, obs.SlotUETake{UE: g.UE, ULBytes: g.Bytes, ULGrants: 1})
	}
	s.takeBuf = takes
	slices.SortFunc(takes, func(x, y obs.SlotUETake) int { return x.UE - y.UE })
	n := 0
	for _, t := range takes {
		if n > 0 && takes[n-1].UE == t.UE {
			u := &takes[n-1]
			u.DLBytes, u.DLItems = u.DLBytes+t.DLBytes, u.DLItems+t.DLItems
			u.ULBytes, u.ULGrants = u.ULBytes+t.ULBytes, u.ULGrants+t.ULGrants
			continue
		}
		takes[n] = t
		n++
	}
	for _, t := range takes[:n] {
		s.h.slotDLTake.Set(obs.UEKey{UE: t.UE}, float64(t.DLBytes))
		s.h.slotULGrant.Set(obs.UEKey{UE: t.UE}, float64(t.ULBytes))
	}
	if n > 0 { // nil when no UE took anything: the ledger's wire form
		rec.PerUE = takes[:n]
	}
	s.obs.Slot(rec)
}

// ---------------------------------------------------------------------------
// Downlink flow: UPF → gNB stack → RLC queue → scheduler → PHY/radio → UE.
// ---------------------------------------------------------------------------

// dlStep is the next engine event of a DL packet on its way from the UPF
// (the "dl.offer" lane entry) into the gNB's RLC queue; from there on the
// packet rides a transport-block context (dlTB). Like a UL packet it has at
// most one event pending and is its own handler.
type dlStep uint8

const (
	dlGNBDown  dlStep = iota // at the gNB: SDAP↓/PDCP↓/RLC↓ processing
	dlEnqueue                // processing done: into the RLC queue
	dlReleased               // poisoned: the context is back in its pool
)

// dlStepName is each step's engine event name.
var dlStepName = [...]string{dlGNBDown: "dl.gnb.down", dlEnqueue: "dl.enqueue"}

// schedule arms the packet's next step at the given instant.
func (p *dlPacket) schedule(at sim.Time, next dlStep) {
	p.next = next
	p.s.Eng.Schedule(at, dlStepName[next], p)
}

// Fire implements sim.Handler: it runs the packet's pending event at the
// engine's clock.
func (p *dlPacket) Fire() {
	s := p.s
	switch p.next {
	case dlGNBDown:
		// gNB SDAP↓ / PDCP↓ / RLC↓ processing (⑧ in Fig. 3).
		now := s.Eng.Now()
		d := s.sampleGNB(proc.LayerSDAP) + s.sampleGNB(proc.LayerPDCP) + s.sampleGNB(proc.LayerRLC)
		s.seg(&p.by, p.id, obs.DirDL, obs.LayerStack, "⑧ gNB SDAP↓", core.Processing, now, d)
		p.schedule(now.Add(d), dlEnqueue)
	case dlEnqueue:
		now := s.Eng.Now()
		p.enqueued = now
		s.gnbRLC.Enqueue(rlcQueued(p))
		s.obs.Edge(obs.Edge{Packet: p.id, Dir: obs.DirDL, Kind: obs.EdgeEnqueued,
			Time: now, Arg: int64(len(s.gnbRLC.Peek()))})
	default:
		panic("node: event fired for a released DL packet context")
	}
}

// OfferDL injects one DL application packet of size bytes at the UPF at
// time at.
func (s *System) OfferDL(at sim.Time, size int) int {
	return s.OfferDLAs(0, at, size)
}

// OfferDLAs is OfferDL with the packet attributed to logical UE ue — label
// only, like OfferULAs: scheduling, channel draws and processing load are
// unchanged by the attribution.
//
// The packet waits in the engine's arrival lane until dlArrive.
func (s *System) OfferDLAs(ue int, at sim.Time, size int) int {
	id := s.nextID
	s.nextID++
	s.Eng.Arrive(at, sim.Arrival{Kind: arriveDL, ID: id, UE: ue, Size: size})
	return id
}

// dlArrive builds a DL packet's context, and enters it in dlItems, when it
// reaches the UPF; GTP-U encapsulation and N3 forwarding start.
func (s *System) dlArrive(a sim.Arrival) {
	now := s.Eng.Now()
	p := s.dlPool.get()
	*p = dlPacket{s: s, id: a.ID, ue: a.UE, size: a.Size, offered: now}
	if s.dlItems == nil {
		s.dlItems = map[int]*dlPacket{}
	}
	s.dlItems[p.id] = p
	s.seg(&p.by, p.id, obs.DirDL, obs.LayerCore, "UPF→gNB (GTP-U)", core.Processing, now, s.cfg.CoreLatency)
	p.schedule(now.Add(s.cfg.CoreLatency), dlGNBDown)
}

// tbStep is the next engine event of a DL transport block.
type tbStep uint8

const (
	tbRadioMiss tbStep = iota // the radio was late for the slot: requeue
	tbOnAir                   // the planned slot starts: build and transmit
	tbRx                      // reception at the UE ends
	tbHARQ                    // the gNB learns of a lost block: retransmit
	tbUEUp                    // UE PHY↑…APP↑ processing done
)

// tbStepName is each step's engine event name.
var tbStepName = [...]string{
	tbRadioMiss: "dl.radiomiss", tbOnAir: "dl.onair", tbRx: "dl.rx",
	tbHARQ: "dl.harq", tbUEUp: "dl.ue.up",
}

// dlTB is one DL transport block in flight, from the scheduling instant
// that took its packets off the RLC queue to their delivery, loss or
// requeue. Contexts are pooled (System.tbPool) and are their own handlers,
// so a steady-state block allocates nothing. A block has at most one event
// pending.
type dlTB struct {
	s    *System
	next tbStep

	ids    []int    // packets riding the block, in queue order
	segs   []int    // RLC PDUs each packet's SDU became, in ids order
	target sim.Time // start of the planned DL slot
	onAir  sim.Time // end of reception at the UE
	procD  sim.Duration
	rx     []byte // received block, owned until tbUEUp releases it
	lost   bool   // the PHY lost the block
}

// schedule arms the block's next step at the given instant.
func (tb *dlTB) schedule(at sim.Time, next tbStep) {
	tb.next = next
	tb.s.Eng.Schedule(at, tbStepName[next], tb)
}

// Fire implements sim.Handler: it runs the block's pending event at the
// engine's clock.
func (tb *dlTB) Fire() {
	s := tb.s
	switch tb.next {
	case tbRadioMiss:
		s.dlRadioMiss(tb)
	case tbOnAir:
		s.transmitDL(tb)
	case tbRx:
		s.dlReceived(tb)
	case tbHARQ:
		s.dlRetransmit(tb)
	case tbUEUp:
		s.dlDeliver(tb)
	}
}

// newTB takes a transport-block context from the pool.
func (s *System) newTB(target sim.Time) *dlTB {
	tb := s.tbPool.get()
	tb.s, tb.target = s, target
	return tb
}

// freeTB returns a block's context to the pool once no event of its is
// pending. The context keeps its ids/segs capacity, and the free list is
// never dropped: a System holds its peak of blocks in flight, rounded up
// to a chunk.
func (s *System) freeTB(tb *dlTB) {
	tb.ids, tb.segs, tb.rx, tb.lost = tb.ids[:0], tb.segs[:0], nil, false
	s.tbPool.free = append(s.tbPool.free, tb)
}

// launchDL starts the MAC→PHY→radio pipeline for the packets taken at
// boundary b, targeting plan.TargetDL.
func (s *System) launchDL(b sim.Time, plan sched.Plan, taken []rlcQ) {
	if len(taken) == 0 {
		return
	}
	target := plan.TargetDL
	now := s.Eng.Now() // b − TickLead when a lead is configured
	// MAC + PHY processing, then sample submission to the radio head. All
	// of it must complete before the slot goes on air (§4's
	// interdependency).
	macD := s.sampleGNB(proc.LayerMAC)
	phyD := s.sampleGNB(proc.LayerPHY)
	var submitD sim.Duration
	if s.cfg.GNBRadio != nil {
		submitD = s.cfg.GNBRadio.Bus.SubmitLatency(s.cfg.GNBRadio.SamplesPerSlot(s.cfg.Grid.Mu), s.rng) +
			sim.Duration(s.cfg.GNBRadio.ConvertUs*1000)
	}
	ready := now.Add(macD + phyD + submitD)
	tb := s.newTB(target)
	for _, q := range taken {
		tb.ids = append(tb.ids, q.ID)
		p := s.dlItems[q.ID]
		if p == nil {
			continue
		}
		s.seg(&p.by, p.id, obs.DirDL, obs.LayerMAC, "gNB MAC+PHY", core.Processing, now, macD+phyD)
		s.seg(&p.by, p.id, obs.DirDL, obs.LayerBus, "gNB→RH submit", core.Radio, now.Add(macD+phyD), submitD)
	}

	if ready > target {
		// The radio was not ready when the slot started: the transmission
		// is corrupted (§4). Re-enqueue everything for the next boundary.
		s.counters.RadioMisses++
		s.h.radioMisses.Inc()
		tb.schedule(ready, tbRadioMiss)
		return
	}

	// The slack between radio readiness and the slot going on air is the
	// price of scheduling ahead (the §4 margin) — protocol latency. Charging
	// it makes the DL journey partition the one-way latency exactly.
	if ready < target {
		for _, id := range tb.ids {
			if p := s.dlItems[id]; p != nil {
				s.seg(&p.by, p.id, obs.DirDL, obs.LayerSched,
					"wait for planned DL slot", core.Protocol, ready, target.Sub(ready))
			}
		}
	}

	// Build one transport block carrying all taken SDUs through the real
	// data plane, transmit at the slot's data region.
	tb.schedule(target, tbOnAir)
}

// dlRadioMiss requeues the block's packets after a radio miss, or gives up
// on those out of attempts.
func (s *System) dlRadioMiss(tb *dlTB) {
	ready, target := s.Eng.Now(), tb.target
	for _, id := range tb.ids {
		if p := s.dlItems[id]; p != nil {
			p.attempts++
			if p.attempts >= s.cfg.HARQMaxTx+2 {
				s.finishDL(p, ready, false)
				continue
			}
			s.seg(&p.by, p.id, obs.DirDL, obs.LayerBus,
				"radio miss → requeue", core.Radio, target, ready.Sub(target))
			s.obs.Edge(obs.Edge{Packet: p.id, Dir: obs.DirDL, Kind: obs.EdgeRadioMiss,
				Time: ready, Ref: target, Arg: int64(ready.Sub(target))})
			s.gnbRLC.Enqueue(rlcQueued(p)) // keeps original EnqueuedAt
		}
	}
	s.freeTB(tb)
}

// transmitDL encodes the block's packets down the gNB stack into one
// transport block and puts it on air. Packets that fail to encode are lost
// and leave the block.
func (s *System) transmitDL(tb *dlTB) {
	target := tb.target
	sym := s.cfg.Grid.Mu.SymbolDuration()
	ctrl := 2 * sym
	// Each Segment reuses the RLC entity's scratch, so the block's PDUs are
	// copied out, back to back, before the next packet is segmented.
	enc, pdus := s.dlEnc[:0], s.dlPDUs[:0]
	tbBytes := 0
	ids := tb.ids[:0] // filtered in place: the packets that made it in
	for _, id := range tb.ids {
		p := s.dlItems[id]
		if p == nil {
			continue
		}
		// Real data plane: SDAP → PDCP → RLC encode now (bytes prepared
		// during the MAC/PHY processing charged above).
		sdap := s.gnbSDAP.Encap(s.stamp(p.id, p.ue, p.size))
		pdcpPDU, err := s.gnbPDCP.Protect(sdap)
		if err != nil {
			s.finishDL(p, target, false)
			continue
		}
		segs, err := s.gnbRLC.Segment(pdcpPDU, 1<<14)
		if err != nil {
			s.finishDL(p, target, false)
			continue
		}
		for _, seg := range segs {
			start := len(enc)
			enc = append(enc, seg...)
			// A view into an array enc later outgrows still holds its PDU.
			pdus = append(pdus, enc[start:len(enc):len(enc)])
			tbBytes += len(seg) + 3
		}
		ids = append(ids, id)
		tb.segs = append(tb.segs, len(segs))
	}
	tb.ids = ids
	s.dlEnc = enc
	if len(pdus) == 0 {
		s.freeTB(tb)
		return
	}
	block, err := s.gnbMAC.BuildTB(pdus, tbBytes)
	clear(pdus) // keep no reference to arrays enc outgrew
	s.dlPDUs = pdus[:0]
	if err != nil {
		for _, id := range ids {
			s.finishDL(s.dlItems[id], target, false)
		}
		s.freeTB(tb)
		return
	}
	air, err := s.phyDL.AirTime(len(block), carrierPRBs, sym)
	if err != nil {
		air = sym
	}
	tb.onAir = target.Add(ctrl + air)
	rx, ok := s.phyDL.Transmit(block, target)
	tb.rx, tb.lost = rx, !ok
	for _, id := range ids {
		if p := s.dlItems[id]; p != nil {
			s.obs.Edge(obs.Edge{Packet: p.id, Dir: obs.DirDL, Kind: obs.EdgeTxStart,
				Time: target, Ref: target, Arg: int64(p.attempts + 1)})
		}
	}
	s.harqLaunch(1)
	tb.schedule(tb.onAir, tbRx)
}

// dlReceived resolves the block at the end of its reception: a loss goes to
// HARQ at once, anything else up the UE stack.
func (s *System) dlReceived(tb *dlTB) {
	onAirEnd, target := tb.onAir, tb.target
	s.harqResolve(1)
	if tb.lost {
		s.counters.PHYLosses++
		s.h.crcFailures.Inc()
		for _, id := range tb.ids {
			if p := s.dlItems[id]; p != nil {
				s.obs.Edge(obs.Edge{Packet: p.id, Dir: obs.DirDL, Kind: obs.EdgeCRCFail,
					Time: onAirEnd, Arg: int64(p.attempts + 1)})
			}
		}
		tb.schedule(onAirEnd, tbHARQ)
		return
	}
	for _, id := range tb.ids {
		if p := s.dlItems[id]; p != nil {
			s.seg(&p.by, p.id, obs.DirDL, obs.LayerAir,
				"⑩ DL data on air", core.Protocol, target, onAirEnd.Sub(target))
		}
	}
	s.ueReceiveDL(tb)
}

// dlRetransmit requeues a lost block's packets for HARQ retransmission, or
// gives up on those out of attempts.
func (s *System) dlRetransmit(tb *dlTB) {
	requeueAt, target := s.Eng.Now(), tb.target
	for _, id := range tb.ids {
		p := s.dlItems[id]
		if p == nil {
			continue
		}
		p.attempts++
		if p.attempts >= s.cfg.HARQMaxTx {
			s.finishDL(p, requeueAt, false)
		} else {
			s.h.harqRetx.Inc()
			s.obs.Edge(obs.Edge{Packet: p.id, Dir: obs.DirDL, Kind: obs.EdgeHARQRetx,
				Time: requeueAt, Arg: int64(p.attempts + 1)})
			s.seg(&p.by, p.id, obs.DirDL, obs.LayerMAC,
				"HARQ retransmission", core.Protocol, target, requeueAt.Sub(target))
			s.gnbRLC.Enqueue(rlcQueued(p))
		}
	}
	s.freeTB(tb)
}

// ueReceiveDL runs the UE receive chain (⑪ PHY↑…APP↑).
func (s *System) ueReceiveDL(tb *dlTB) {
	tb.procD = s.sampleUE(proc.LayerPHY) + s.sampleUE(proc.LayerMAC) +
		s.sampleUE(proc.LayerRLC) + s.sampleUE(proc.LayerPDCP) + s.sampleUE(proc.LayerSDAP)
	tb.schedule(tb.onAir.Add(tb.procD), tbUEUp)
}

// dlDeliver decodes the received block up the UE stack and resolves each of
// its packets: delivered when its own bytes come out of SDAP, lost
// otherwise.
func (s *System) dlDeliver(tb *dlTB) {
	done := s.Eng.Now()
	ok := s.dlDecode(tb)
	s.phyDL.Release(tb.rx)
	for i, id := range tb.ids {
		p := s.dlItems[id]
		if p == nil {
			continue
		}
		if ok != nil {
			s.seg(&p.by, p.id, obs.DirDL, obs.LayerStack, "⑪ UE PHY↑…APP↑", core.Processing, tb.onAir, tb.procD)
		}
		s.finishDL(p, done, ok != nil && ok[i])
	}
	s.freeTB(tb)
}

// dlDecode runs the received block through MAC↑…SDAP↑ and reports, per
// packet of the block, whether that packet's own bytes, its stamp, came
// out. A packet whose PDUs are dropped anywhere on the way gets false, so a
// drop never shifts a later SDU onto another packet. It returns nil when
// the block does not parse at all. The verdicts are System scratch, valid
// until the next call.
func (s *System) dlDecode(tb *dlTB) []bool {
	payloads, err := s.ueMACRx.ParseTB(tb.rx)
	if err != nil {
		return nil
	}
	ok := s.dlOK[:0]
	next := 0 // payloads consumed
	for i, id := range tb.ids {
		var sdu []byte
		dropped := false
		for range tb.segs[i] {
			if next == len(payloads) {
				dropped = true
				break
			}
			out, err := s.ueRLCRx.Receive(payloads[next])
			next++
			if err != nil {
				s.h.rlcRxDrops.Inc()
				dropped = true
				continue
			}
			if out != nil {
				sdu = out
			}
		}
		delivered := false
		if !dropped && sdu != nil {
			// Unprotect and Decap reuse scratch, so the comparison happens
			// before the next packet's SDU is decoded.
			if plain, err := s.uePDCPRx.Unprotect(sdu); err == nil {
				if app, err := s.ueSDAPRx.Decap(plain); err == nil {
					p := s.dlItems[id]
					delivered = p != nil && bytes.Equal(app, s.stamp(p.id, p.ue, p.size))
				}
			}
		}
		ok = append(ok, delivered)
	}
	s.dlOK = ok
	return ok
}

// finishDL resolves a DL packet and, as its last act, recycles the
// packet's context: the caller must not touch p afterwards.
func (s *System) finishDL(p *dlPacket, at sim.Time, ok bool) {
	if p == nil {
		return
	}
	if obs.PoisonEnabled && p.next == dlReleased {
		panic("node: finishDL on a released DL packet context")
	}
	delete(s.dlItems, p.id)
	lat := at.Sub(p.offered)
	if ok {
		s.h.delivered.Inc()
		s.h.latDL.Observe(lat)
	} else {
		s.h.lost.Inc()
	}
	s.record(Result{
		ID: p.id, Uplink: false, Delivered: ok,
		Latency: lat, BySource: p.by, Attempts: p.attempts + 1,
	})
	s.audit(p.id, p.ue, obs.DirDL, ok, lat, p.attempts+1, p.by)
	s.onDLDelivered(p.id, lat, ok)
	if obs.PoisonEnabled {
		*p = dlPacket{id: obs.PoisonPacket, next: dlReleased}
	}
	recycle(s, &s.dlPool, p)
}
