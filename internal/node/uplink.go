package node

import (
	"bytes"
	"slices"
	"strconv"

	"urllcsim/internal/core"
	"urllcsim/internal/nr"
	"urllcsim/internal/obs"
	"urllcsim/internal/proc"
	"urllcsim/internal/sched"
	"urllcsim/internal/sim"
)

// ulKind is the symbol kind SRs and UL data need.
const ulKind = nr.SymUL

// ulStep is the next engine event of a UL packet's journey after its
// arrival (the "ul.offer" lane entry). A packet has at most one event
// pending, so one field names it, and the packet, its own handler,
// dispatches on it.
type ulStep uint8

const (
	ulReady   ulStep = iota // data in the UE RLC queue: SR or configured grant
	ulSRRecv                // the gNB decoded the packet's SR
	ulGrant                 // the UE decoded the packet's grant
	ulRx                    // the TB's reception at the gNB ends
	ulDeliver               // gNB stack and core done: the packet is at the UPF
)

// ulStepName is each step's engine event name.
var ulStepName = [...]string{
	ulReady: "ul.ready", ulSRRecv: "ul.sr.recv",
	ulGrant: "ul.grant", ulRx: "ul.rx", ulDeliver: "ul.deliver",
}

// ulPacket tracks one UL packet through SR/grant/transmission. Its
// application bytes are stamp(id, ue, size), written on each transmission.
type ulPacket struct {
	s        *System
	id       int
	ue       int // logical UE this packet belongs to (attribution only)
	size     int // application bytes
	offered  sim.Time
	ready    sim.Time // UE stack done, data in UE RLC queue
	srRecvAt sim.Time // gNB finished decoding this packet's SR
	attempts int
	by       core.Tally // journey time per latency source, folded by seg
	done     bool       // finishUL ran: later resolutions are ignored
	next     ulStep     // the pending event
	lost     bool       // the PHY lost the TB in flight

	// cgSlot/cgUnit pin the current grant-free transmission to its shared
	// contention unit (Config.CGUnits > 0). cgUnit is −1 whenever no
	// contended transmission is in flight.
	cgSlot sim.Time
	cgUnit int

	// The transmission in flight: the granted slot (from ulGrant), the
	// start of the UL data region (it ends when ulRx fires), and the
	// received TB (unless lost), owned until ulDeliver releases it.
	slot    sim.Time
	ulStart sim.Time
	rx      []byte
}

// schedule arms the packet's next step at the given instant.
func (p *ulPacket) schedule(at sim.Time, next ulStep) {
	p.next = next
	p.s.Eng.Schedule(at, ulStepName[next], p)
}

// Fire implements sim.Handler: it runs the packet's pending event. Each
// case's instant is the engine's clock, the time the step was scheduled for.
func (p *ulPacket) Fire() {
	s := p.s
	switch p.next {
	case ulReady:
		if s.cfg.GrantFree {
			s.ulTransmitOnGrantFree(p)
		} else {
			s.ulSendSR(p)
		}
	case ulSRRecv:
		p.srRecvAt = s.Eng.Now()
		s.obs.Edge(obs.Edge{Packet: p.id, Dir: obs.DirUL, Kind: obs.EdgeSRReceived, Time: p.srRecvAt})
		s.sch.OnSR(sched.SRRequest{UE: p.ue, RecvAt: p.srRecvAt, Bytes: p.size + 64})
		s.pendingSRPackets = append(s.pendingSRPackets, p)
	case ulGrant:
		haveGrant := s.Eng.Now()
		s.obs.Edge(obs.Edge{Packet: p.id, Dir: obs.DirUL, Kind: obs.EdgeGrantDecoded,
			Time: haveGrant, Ref: p.slot})
		s.ulTransmitAt(p, p.slot, haveGrant)
	case ulRx:
		s.ulReceived(p)
	case ulDeliver:
		s.ulDeliver(p)
	}
}

// OfferUL injects one UL application packet of size bytes at the UE at
// time at.
func (s *System) OfferUL(at sim.Time, size int) int {
	return s.OfferULAs(0, at, size)
}

// OfferULAs is OfferUL with the packet attributed to logical UE ue. The UE
// id labels metrics, outcomes and the slot ledger; it does not change any
// scheduling or channel decision (processing load scales with Config.NUEs),
// so a run's aggregate results are identical however packets are attributed.
// It panics on a negative id in either access mode: grant-free contention
// streams are indexed by the id, and kept for every id up to the largest
// used, so ids should be dense, 0…n−1.
//
// The packet waits in the engine's arrival lane until ulArrive.
func (s *System) OfferULAs(ue int, at sim.Time, size int) int {
	if ue < 0 {
		panic("node: negative UE id " + strconv.Itoa(ue))
	}
	id := s.nextID
	s.nextID++
	s.Eng.Arrive(at, sim.Arrival{Kind: arriveUL, ID: id, UE: ue, Size: size})
	return id
}

// ulArrive builds a UL packet's context when it reaches the UE's stack, and
// ① UE APP↓ (SDAP/PDCP/RLC processing) runs before the MAC can act.
func (s *System) ulArrive(a sim.Arrival) {
	now := s.Eng.Now()
	p := carve(&s.ulChunk)
	*p = ulPacket{s: s, id: a.ID, ue: a.UE, size: a.Size, offered: now, cgUnit: -1}
	d := s.sampleUE(proc.LayerSDAP) + s.sampleUE(proc.LayerPDCP) + s.sampleUE(proc.LayerRLC)
	s.seg(&p.by, p.id, obs.DirUL, obs.LayerStack, "① UE APP↓", core.Processing, now, d)
	p.ready = now.Add(d)
	p.schedule(p.ready, ulReady)
}

// ulSendSR transmits the scheduling request in the next UL opportunity
// (② in Fig. 3; SR is one bit in one symbol, paper footnote 2).
func (s *System) ulSendSR(p *ulPacket) {
	sym := s.cfg.ULGrid.Mu.SymbolDuration()
	srStart, ok := s.cfg.ULGrid.NextKindStart(p.ready, ulKind)
	if !ok {
		s.finishUL(p, p.ready, false)
		return
	}
	s.seg(&p.by, p.id, obs.DirUL, obs.LayerSched, "② wait for UL slot + SR", core.Protocol, p.ready, srStart.Sub(p.ready)+sym)
	s.counters.SRsSent++
	s.h.srsSent.Inc()
	s.obs.Edge(obs.Edge{Packet: p.id, Dir: obs.DirUL, Kind: obs.EdgeSRSent,
		Time: srStart, Ref: p.ready, Arg: int64(srStart.Sub(p.ready))})
	srEnd := srStart.Add(sym)
	// ③ gNB radio + PHY decode of the SR.
	var radioD sim.Duration
	if s.cfg.GNBRadio != nil {
		radioD = s.cfg.GNBRadio.RxLatency(s.cfg.Grid.Mu, s.rng)
	}
	phyD := s.sampleGNB(proc.LayerPHY)
	recvAt := srEnd.Add(radioD + phyD)
	s.seg(&p.by, p.id, obs.DirUL, obs.LayerBus, "③ gNB SR decode", core.Radio, srEnd, radioD)
	s.seg(&p.by, p.id, obs.DirUL, obs.LayerPHY, "③ gNB PHY", core.Processing, srEnd.Add(radioD), phyD)
	p.schedule(recvAt, ulSRRecv)
}

// deliverGrant carries an issued grant to the UE on the DL control of slot
// targetDL (⑤ in Fig. 3) and arms the granted transmission. Grants are
// paired to packets by (UE, SR-reception instant) — the scheduler may defer
// or reorder SRs across ticks (capacity horizon, round-robin fairness), so
// global FIFO order is no longer guaranteed. A split grant's remainder
// carries the same InResponseTo as the already-served head and pairs with
// nothing: it is dropped here rather than stealing another packet's turn.
func (s *System) deliverGrant(targetDL sim.Time, g sched.Grant) {
	idx := -1
	for i, q := range s.pendingSRPackets {
		if q.ue == g.UE && q.srRecvAt == g.InResponseTo {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	p := s.pendingSRPackets[idx]
	// slices.Delete clears the vacated tail slot, so the backing array
	// keeps no finished packet (and its context chunk) reachable.
	s.pendingSRPackets = slices.Delete(s.pendingSRPackets, idx, idx+1)
	s.obs.Edge(obs.Edge{Packet: p.id, Dir: obs.DirUL, Kind: obs.EdgeGrantIssued,
		Time: s.Eng.Now(), Ref: g.SlotStart, Arg: int64(s.Eng.Now().Sub(p.srRecvAt))})
	sym := s.cfg.Grid.Mu.SymbolDuration()
	ctrlEnd := targetDL.Add(2 * sym)
	// ④/⑤: from SR reception to the grant's control symbols landing at the
	// UE — waiting for the scheduling instant plus the grant on air. All
	// protocol latency; the UE's grant decode is processing.
	s.seg(&p.by, p.id, obs.DirUL, obs.LayerSched, "④⑤ UL grant (wait+ctrl)", core.Protocol, p.srRecvAt, ctrlEnd.Sub(p.srRecvAt))
	decode := s.sampleUE(proc.LayerMAC)
	haveGrant := ctrlEnd.Add(decode)
	s.seg(&p.by, p.id, obs.DirUL, obs.LayerMAC, "⑥ UE grant decode", core.Processing, ctrlEnd, decode)
	p.slot = g.SlotStart
	p.schedule(haveGrant, ulGrant)
}

// ulTransmitOnGrantFree uses the standing configured grant: the next UL
// slot after the UE's preparation lead.
func (s *System) ulTransmitOnGrantFree(p *ulPacket) {
	lead := s.sampleUE(proc.LayerMAC) + s.sampleUE(proc.LayerPHY)
	g, ok := s.sch.ConfiguredGrant(p.ue, p.ready.Add(lead))
	if !ok {
		s.finishUL(p, p.ready, false)
		return
	}
	s.seg(&p.by, p.id, obs.DirUL, obs.LayerMAC, "UE MAC+PHY prep", core.Processing, p.ready, lead)
	if s.cfg.CGUnits > 0 {
		// Shared pre-allocation: pick one of the slot's contention units.
		// Every contender registers strictly before the slot starts, so the
		// collision verdict at TB-reception time sees the full census.
		p.cgSlot = g.SlotStart
		p.cgUnit = s.cgRNG(p.ue).Intn(s.cfg.CGUnits)
		s.cgRegister(g.SlotStart, p.cgUnit)
	}
	// The slot wait starts when the UE's preparation ends, not at the
	// current event time — otherwise prep and wait would overlap and the
	// journey would double-count the lead.
	s.ulTransmitAt(p, g.SlotStart, p.ready.Add(lead))
}

// cgRNG returns UE ue's grant-free contention stream, derived from the seed
// and the UE id alone so a UE's picks do not depend on who else is active.
// The slice grows on first use of a UE id, seeding every stream up to it.
func (s *System) cgRNG(ue int) *sim.RNG {
	for u := len(s.cgRNGs); u <= ue; u++ {
		s.cgRNGs = append(s.cgRNGs, sim.RNG{})
		s.cgRNGs[u].Seed(s.cfg.Seed ^ sim.SplitMix64(0xC6C0DE^uint64(u)))
	}
	return &s.cgRNGs[ue]
}

// cgBooking counts the grant-free transmissions booked onto each contention
// unit of one UL slot.
type cgBooking struct {
	slot  sim.Time
	units []int // indexed by unit; len Config.CGUnits
}

// cgBooked returns the unit counts booked onto slot, or nil when none are.
func (s *System) cgBooked(slot sim.Time) []int {
	for _, b := range s.cgReg {
		if b.slot == slot {
			return b.units
		}
	}
	return nil
}

// cgRegister books one grant-free transmission onto (slot, unit) and sweeps
// bookings of slots that have fully ended, keeping their unit counts for
// reuse.
func (s *System) cgRegister(slot sim.Time, unit int) {
	now := s.Eng.Now()
	dur := s.cfg.ULGrid.Mu.SlotDuration()
	kept := s.cgReg[:0]
	for _, b := range s.cgReg {
		if b.slot.Add(dur) <= now {
			s.cgFree = append(s.cgFree, b.units)
		} else {
			kept = append(kept, b)
		}
	}
	s.cgReg = kept
	units := s.cgBooked(slot)
	if units == nil {
		if n := len(s.cgFree); n > 0 {
			units, s.cgFree = s.cgFree[n-1], s.cgFree[:n-1]
			clear(units)
		} else {
			units = make([]int, s.cfg.CGUnits)
		}
		s.cgReg = append(s.cgReg, cgBooking{slot: slot, units: units})
	}
	units[unit]++
}

// cgCollided reports whether the packet's in-flight grant-free transmission
// shared its contention unit with another UE.
func (s *System) cgCollided(p *ulPacket) bool {
	if p.cgUnit < 0 {
		return false
	}
	units := s.cgBooked(p.cgSlot)
	return units != nil && units[p.cgUnit] >= 2
}

// cgBackoffReady returns the retry-ready instant after a collision: the UE
// skips a uniform number of UL opportunities in [0, CGBackoffSlots) so two
// collided UEs decorrelate instead of marching in lock-step forever.
func (s *System) cgBackoffReady(ue int, from sim.Time) sim.Time {
	skip := s.cgRNG(ue).Intn(s.cfg.CGBackoffSlots)
	t := from
	dur := s.cfg.ULGrid.Mu.SlotDuration()
	for i := 0; i < skip; i++ {
		g, ok := s.sch.ConfiguredGrant(ue, t)
		if !ok {
			return from
		}
		t = g.SlotStart.Add(dur)
	}
	return t
}

// ulTransmitAt performs the UL data transmission in the UL region of the
// slot starting at slotStart (⑥→⑦ in Fig. 3). from is the instant the
// packet became ready for this transmission (grant decoded / prep done);
// the wait-for-slot segment is charged from there.
func (s *System) ulTransmitAt(p *ulPacket, slotStart, from sim.Time) {
	sym := s.cfg.ULGrid.Mu.SymbolDuration()
	if now := s.Eng.Now(); slotStart < now {
		// The granted slot already passed (pathological margins): fall
		// forward to the next UL opportunity.
		if g, ok := s.sch.ConfiguredGrant(p.ue, now); ok {
			if p.cgUnit >= 0 {
				// Move the contention booking along with the transmission:
				// the packet never went on air in the old slot, so it must
				// not count as a contender there.
				s.cgBooked(p.cgSlot)[p.cgUnit]--
				p.cgSlot = g.SlotStart
				p.cgUnit = s.cgRNG(p.ue).Intn(s.cfg.CGUnits)
				s.cgRegister(p.cgSlot, p.cgUnit)
			}
			slotStart = g.SlotStart
		} else {
			s.finishUL(p, now, false)
			return
		}
	}
	ulStart, ulSyms := s.cfg.ULGrid.ULSymbolsOfSlot(slotStart)
	if ulSyms == 0 {
		s.finishUL(p, slotStart, false)
		return
	}
	// Real data plane, prepared before the slot.
	sdap := s.ueSDAP.Encap(s.stamp(p.id, p.ue, p.size))
	pdcpPDU, err := s.uePDCP.Protect(sdap)
	if err != nil {
		s.finishUL(p, slotStart, false)
		return
	}
	segs, err := s.ueRLC.Segment(pdcpPDU, 1<<14)
	if err != nil {
		s.finishUL(p, slotStart, false)
		return
	}
	tbBytes := 0
	for _, seg := range segs {
		tbBytes += len(seg) + 3
	}
	tb, err := s.ueMAC.BuildTB(segs, tbBytes)
	if err != nil {
		s.finishUL(p, slotStart, false)
		return
	}
	air, err := s.phyUL.AirTime(len(tb), carrierPRBs, sym)
	if err != nil {
		air = sym
	}
	if air > sim.Duration(ulSyms)*sym {
		air = sim.Duration(ulSyms) * sym
	}
	if ulStart > from {
		s.seg(&p.by, p.id, obs.DirUL, obs.LayerSched, "⑥ wait for granted UL slot", core.Protocol, from, ulStart.Sub(from))
	}
	onAirEnd := ulStart.Add(air)
	rx, ok := s.phyUL.Transmit(tb, ulStart)
	s.obs.Edge(obs.Edge{Packet: p.id, Dir: obs.DirUL, Kind: obs.EdgeTxStart,
		Time: ulStart, Ref: slotStart, Arg: int64(p.attempts + 1)})
	s.harqLaunch(1)
	p.ulStart, p.rx, p.lost = ulStart, rx, !ok
	p.schedule(onAirEnd, ulRx)
}

// ulReceived resolves the TB at the end of its reception: a PHY loss or a
// shared-unit collision retransmits (or gives up), anything else goes up
// the gNB stack.
func (s *System) ulReceived(p *ulPacket) {
	onAirEnd := s.Eng.Now()
	air := onAirEnd.Sub(p.ulStart)
	s.harqResolve(1)
	// Shared-grant contention resolves here: every UE that picked this
	// (slot, unit) registered before the slot started, so the census is
	// complete by reception time. Two or more → the TB is unrecoverable
	// for all of them, like a CRC failure.
	collided := s.cgCollided(p)
	if collided {
		s.counters.CGCollisions++
		s.h.cgCollision.Inc()
	}
	if p.lost || collided {
		if p.lost {
			s.counters.PHYLosses++
			s.h.crcFailures.Inc()
		}
		s.phyUL.Release(p.rx)
		p.rx = nil
		p.attempts++
		s.obs.Edge(obs.Edge{Packet: p.id, Dir: obs.DirUL, Kind: obs.EdgeCRCFail,
			Time: onAirEnd, Arg: int64(p.attempts)})
		if p.attempts >= s.cfg.HARQMaxTx {
			s.finishUL(p, onAirEnd, false)
			return
		}
		// HARQ: retransmit in the next UL opportunity (grant-free) or
		// after a fresh SR (grant-based). A collision additionally backs
		// off a random number of UL slots before the retry.
		s.h.harqRetx.Inc()
		s.obs.Edge(obs.Edge{Packet: p.id, Dir: obs.DirUL, Kind: obs.EdgeHARQRetx,
			Time: onAirEnd, Arg: int64(p.attempts + 1)})
		s.seg(&p.by, p.id, obs.DirUL, obs.LayerMAC, "HARQ retransmission", core.Protocol, p.ulStart, air)
		p.ready = onAirEnd
		if collided {
			p.ready = s.cgBackoffReady(p.ue, onAirEnd)
		}
		p.cgSlot, p.cgUnit = 0, -1
		if s.cfg.GrantFree {
			s.ulTransmitOnGrantFree(p)
		} else {
			s.ulSendSR(p)
		}
		return
	}
	s.seg(&p.by, p.id, obs.DirUL, obs.LayerAir, "⑥ UL data on air", core.Protocol, p.ulStart, air)
	s.gnbReceiveUL(onAirEnd, p)
}

// gnbReceiveUL runs ⑦: radio up, PHY decode, MAC↑…SDAP↑, GTP-U to the UPF.
func (s *System) gnbReceiveUL(at sim.Time, p *ulPacket) {
	var radioD sim.Duration
	if s.cfg.GNBRadio != nil {
		radioD = s.cfg.GNBRadio.RxLatency(s.cfg.Grid.Mu, s.rng)
	}
	s.seg(&p.by, p.id, obs.DirUL, obs.LayerBus, "⑦ RH→gNB samples", core.Radio, at, radioD)
	procD := s.sampleGNB(proc.LayerPHY) + s.sampleGNB(proc.LayerMAC) +
		s.sampleGNB(proc.LayerRLC) + s.sampleGNB(proc.LayerPDCP) + s.sampleGNB(proc.LayerSDAP)
	s.seg(&p.by, p.id, obs.DirUL, obs.LayerStack, "⑦ gNB PHY↑…SDAP↑", core.Processing, at.Add(radioD), procD)
	done := at.Add(radioD + procD + s.cfg.CoreLatency)
	s.seg(&p.by, p.id, obs.DirUL, obs.LayerCore, "gNB→UPF (GTP-U)", core.Processing, at.Add(radioD+procD), s.cfg.CoreLatency)
	p.schedule(done, ulDeliver)
}

// ulDeliver decodes the received TB up the gNB stack and through the
// tunnel, and delivers the packet if its own bytes come out at the UPF.
func (s *System) ulDeliver(p *ulPacket) {
	done := s.Eng.Now()
	ok := s.ulDecode(p)
	s.phyUL.Release(p.rx)
	p.rx = nil
	s.finishUL(p, done, ok)
}

// ulDecode runs the received TB through MAC↑…SDAP↑ and the GTP-U tunnel and
// reports whether the packet's own bytes, its stamp, reached the UPF. Every
// intermediate result aliases an entity's scratch, so each is consumed
// before the next call to the same entity.
func (s *System) ulDecode(p *ulPacket) bool {
	payloads, err := s.gnbMACRx.ParseTB(p.rx)
	if err != nil {
		return false
	}
	ok := false
	for _, pl := range payloads {
		sdu, err := s.gnbRLCRx.Receive(pl)
		if err != nil {
			s.h.rlcRxDrops.Inc()
			continue
		}
		if sdu == nil {
			continue
		}
		plain, err := s.gnbPDCPRx.Unprotect(sdu)
		if err != nil {
			continue
		}
		app, err := s.gnbSDAPRx.Decap(plain)
		if err != nil {
			continue
		}
		// Through the tunnel: gNB encapsulates, UPF decapsulates.
		gtpu, err := s.gnbTun.EncapUL(app)
		if err != nil {
			continue
		}
		ip, err := s.upf.DecapUL(gtpu)
		if err != nil {
			continue
		}
		if bytes.Equal(ip, s.stamp(p.id, p.ue, p.size)) {
			ok = true
		}
	}
	return ok
}

func (s *System) finishUL(p *ulPacket, at sim.Time, ok bool) {
	if p == nil || p.done {
		return
	}
	p.done = true
	lat := at.Sub(p.offered)
	if ok {
		s.h.delivered.Inc()
		s.h.latUL.Observe(lat)
	} else {
		s.h.lost.Inc()
	}
	s.record(Result{
		ID: p.id, Uplink: true, Delivered: ok,
		Latency: lat, BySource: p.by, Attempts: p.attempts + 1,
	})
	s.audit(p.id, p.ue, obs.DirUL, ok, lat, p.attempts+1, p.by)
	s.onULDelivered(p.id, at, ok)
}
