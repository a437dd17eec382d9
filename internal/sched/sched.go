// Package sched implements the gNB MAC scheduler: the once-per-slot
// decision process of §2 ("the scheduling task is done just once per slot"),
// SR handling and UL grant issuance, configured grants (grant-free UL), DL
// allocation from the RLC queue, and the radio-readiness margin of §4 — the
// scheduler must plan far enough ahead that processing plus sample
// submission finish before the target slot starts on air.
package sched

import (
	"cmp"
	"fmt"
	"slices"

	"urllcsim/internal/nr"
	"urllcsim/internal/sim"
)

// Grant is one UL allocation: the UE may transmit Bytes starting at Slot.
type Grant struct {
	UE        int
	SlotStart sim.Time
	Bytes     int
	// InResponseTo is the SR reception time that triggered the grant
	// (Never for configured grants).
	InResponseTo sim.Time
}

// Alloc is one DL allocation inside a planned slot.
type Alloc struct {
	UE        int
	SlotStart sim.Time
	Bytes     int
	ItemIDs   []int // which queue items ride this allocation
}

// DLItem is one pending DL SDU in the RLC queue.
type DLItem struct {
	ID         int
	UE         int
	Bytes      int
	EnqueuedAt sim.Time
}

// SRRequest is a received-but-unserved scheduling request.
type SRRequest struct {
	UE     int
	RecvAt sim.Time // when the gNB finished decoding the SR
	Bytes  int      // buffer estimate (from BSR or configured default)
}

// Plan is the outcome of one scheduling instant. Its slices are the
// scheduler's scratch, reused by the next Tick: a caller that keeps them
// longer copies them.
type Plan struct {
	Boundary  sim.Time
	TargetDL  sim.Time // start of the DL slot this instant plans (Never if none)
	ULGrants  []Grant
	DLAllocs  []Alloc
	DLPlanned []int // IDs removed from the DL queue

	// Occupancy accounting for the slot ledger: the planned DL slot's
	// transport capacity, the bytes of it actually allocated (both zero when
	// TargetDL is Never), and the SRs that were eligible at this boundary but
	// left ungranted — the "denied" side of grants issued vs denied.
	DLCapBytes  int
	DLUsedBytes int
	SRsDeferred int

	// SRsSplit counts requests larger than one slot's transport capacity
	// that were served by a capped grant at this boundary with the remainder
	// requeued for a later tick (capacity splitting).
	SRsSplit int
}

// Fairness selects the order in which eligible SRs compete for UL capacity
// at a scheduling instant.
type Fairness int

const (
	// FairFIFO grants strictly in SR-reception order — the single-UE
	// testbed behaviour (§7), where one slow UE can starve the rest.
	FairFIFO Fairness = iota
	// FairRoundRobin interleaves grants one-per-UE per round, rotating the
	// starting UE across ticks, so a UE with a deep backlog cannot capture
	// every UL slot while others wait (multi-UE cells).
	FairRoundRobin
)

// Config parameterises the scheduler.
type Config struct {
	Grid *nr.Grid

	// ULGrid is the uplink timeline when it differs from Grid (FDD's paired
	// carrier). Nil means Grid (TDD).
	ULGrid *nr.Grid

	// MarginSlots is the lead time between a scheduling decision and the
	// slot it targets, covering MAC+PHY processing and radio submission
	// (§4, §7: "the transmission must be always delayed for one slot").
	MarginSlots int

	// K2Slots is the UE's minimum grant→PUSCH preparation time in slots.
	K2Slots int

	// DLSlotBytes / ULSlotBytes are the transport capacity of one full
	// DL/UL slot at the operating MCS (from modulation.TBS).
	DLSlotBytes int
	ULSlotBytes int

	// GrantBytes is the default UL grant size when the SR carries no BSR.
	GrantBytes int

	// Fairness orders eligible SRs at each tick; zero value is FairFIFO.
	Fairness Fairness

	// GrantHorizonSlots bounds how many UL-capable slots beyond the
	// earliest eligible one the capacity walk may examine for a single SR.
	// When every slot in the horizon is full the SR is deferred to a later
	// tick instead of being promised a slot arbitrarily far in the future.
	// 0 → 64.
	GrantHorizonSlots int
}

// Scheduler holds the gNB-side scheduling state.
type Scheduler struct {
	cfg Config

	pendingSR []SRRequest
	// grantedUL tracks slots already promised to a UE so two grants do not
	// collide on the same slot's capacity.
	grantedUL map[sim.Time]int // slot start → bytes already granted
	// rrLast is the UE served first at the previous round-robin tick; the
	// next tick's round starts strictly after it.
	rrLast int

	// Per-tick workspaces, kept across ticks so a steady-state Tick
	// allocates nothing: the SRs eligible at the boundary, their
	// round-robin order and per-UE group starts, and the plan's slices
	// (each DL allocation keeps its ItemIDs array for reuse).
	eligible []SRRequest
	rrOut    []SRRequest
	rrGroups []int
	grants   []Grant
	allocs   []Alloc
	allocAt  map[int]int // UE → index in allocs, this tick
	planned  []int
}

// New returns a scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Grid == nil {
		return nil, fmt.Errorf("sched: nil grid")
	}
	if cfg.MarginSlots < 0 || cfg.K2Slots < 0 {
		return nil, fmt.Errorf("sched: negative margin or k2")
	}
	if cfg.DLSlotBytes <= 0 || cfg.ULSlotBytes <= 0 {
		return nil, fmt.Errorf("sched: non-positive slot capacity")
	}
	if cfg.GrantBytes <= 0 {
		cfg.GrantBytes = cfg.ULSlotBytes
	}
	if cfg.ULGrid == nil {
		cfg.ULGrid = cfg.Grid
	}
	if cfg.GrantHorizonSlots <= 0 {
		cfg.GrantHorizonSlots = 64
	}
	return &Scheduler{cfg: cfg, grantedUL: map[sim.Time]int{}, rrLast: -1, allocAt: map[int]int{}}, nil
}

// OnSR records a decoded scheduling request.
func (s *Scheduler) OnSR(r SRRequest) {
	s.pendingSR = append(s.pendingSR, r)
}

// PendingSRs returns the number of unserved SRs.
func (s *Scheduler) PendingSRs() int { return len(s.pendingSR) }

// slotDur returns the slot duration of the grid.
func (s *Scheduler) slotDur() sim.Duration { return s.cfg.Grid.Mu.SlotDuration() }

// ulSlotDur returns the slot duration of the uplink timeline (== slotDur for
// TDD; FDD pairs carriers of the same numerology, but the UL grid is the
// authority for UL slot extents).
func (s *Scheduler) ulSlotDur() sim.Duration { return s.cfg.ULGrid.Mu.SlotDuration() }

// slotIsDLCapable reports whether the slot starting at t has at least
// needSyms leading DL (or flexible) symbols.
func (s *Scheduler) slotIsDLCapable(t sim.Time, needSyms int) bool {
	i := s.cfg.Grid.SymbolAt(t)
	return s.cfg.Grid.RunOfKind(i, nr.SymDL) >= needSyms
}

// nextULSlot returns the start of the first slot at or after t that
// contains UL (or flexible) symbols.
func (s *Scheduler) nextULSlot(t sim.Time) (sim.Time, bool) {
	g := s.cfg.ULGrid
	start := g.SlotStart(t)
	if start < t {
		start = start.Add(s.ulSlotDur())
	}
	for i := 0; i <= g.Slots()+1; i++ {
		slot := start.Add(sim.Duration(i) * s.ulSlotDur())
		sym := g.SymbolAt(slot)
		run := 0
		for k := 0; k < nr.SymbolsPerSlot; k++ {
			kind := g.KindOfSymbol(sym + int64(k))
			if kind == nr.SymUL || kind == nr.SymFlexible {
				run++
			}
		}
		if run > 0 {
			return slot, true
		}
	}
	return 0, false
}

// Tick runs the scheduling instant at boundary b: it plans the DL slot
// b + margin, issues UL grants for pending SRs, and selects DL queue items.
// dlQueue is consumed FIFO per the planned capacity; the caller removes the
// returned DLPlanned IDs. The plan's slices are valid until the next Tick.
func (s *Scheduler) Tick(b sim.Time, dlQueue []DLItem) Plan {
	plan := Plan{Boundary: b, TargetDL: sim.Never}
	target := b.Add(sim.Duration(s.cfg.MarginSlots) * s.slotDur())

	// --- DL data allocation ---
	if s.slotIsDLCapable(target, 2) {
		plan.TargetDL = target
		plan.DLCapBytes = s.cfg.DLSlotBytes
		remaining := s.cfg.DLSlotBytes
		// One allocation per UE, in order of first appearance.
		clear(s.allocAt)
		allocs, planned := s.allocs[:0], s.planned[:0]
		for _, item := range dlQueue {
			if item.Bytes > remaining {
				break // FIFO: do not reorder past a blocked head-of-line item
			}
			remaining -= item.Bytes
			i, ok := s.allocAt[item.UE]
			if !ok {
				i = len(allocs)
				s.allocAt[item.UE] = i
				if i < cap(allocs) {
					allocs = allocs[:i+1] // reuse the entry and its ItemIDs array
					allocs[i] = Alloc{UE: item.UE, SlotStart: target, ItemIDs: allocs[i].ItemIDs[:0]}
				} else {
					allocs = append(allocs, Alloc{UE: item.UE, SlotStart: target})
				}
			}
			a := &allocs[i]
			a.Bytes += item.Bytes
			a.ItemIDs = append(a.ItemIDs, item.ID)
			planned = append(planned, item.ID)
		}
		s.allocs, s.planned = allocs, planned
		plan.DLAllocs, plan.DLPlanned = allocs, planned
		plan.DLUsedBytes = s.cfg.DLSlotBytes - remaining

		// --- UL grants ride the DL control of the same planned slot ---
		earliestUL := target.Add(sim.Duration(1+s.cfg.K2Slots) * s.slotDur())
		// Split the pending SRs: those decoded after this boundary stay,
		// compacted in place; the eligible ones compete below, and the
		// deferred and split ones rejoin the pending list after them.
		still, eligible := s.pendingSR[:0], s.eligible[:0]
		for _, sr := range s.pendingSR {
			if sr.RecvAt > b {
				still = append(still, sr) // decoded after this boundary
				continue
			}
			eligible = append(eligible, sr)
		}
		s.eligible = eligible
		if s.cfg.Fairness == FairRoundRobin {
			eligible = s.rrOrder(eligible)
		}
		plan.ULGrants = s.grants[:0]
		for _, sr := range eligible {
			g, rem, ok := s.placeUL(sr, earliestUL)
			if !ok {
				// No slot within the grant horizon has room (or the UL grid
				// carries no UL slot at all): the SR waits out the tick.
				still = append(still, sr)
				plan.SRsDeferred++
				continue
			}
			s.grantedUL[g.SlotStart] += g.Bytes
			plan.ULGrants = append(plan.ULGrants, g)
			if rem.Bytes > 0 {
				// Capacity splitting: the request exceeded one slot; the
				// capped remainder competes again at the next tick.
				still = append(still, rem)
				plan.SRsSplit++
			}
		}
		if s.cfg.Fairness == FairRoundRobin && len(plan.ULGrants) > 0 {
			s.rrLast = plan.ULGrants[0].UE
		}
		s.pendingSR, s.grants = still, plan.ULGrants
	} else {
		// No DL-capable slot means no PDCCH for grants either: every SR that
		// was eligible at this boundary waits out the tick.
		for _, sr := range s.pendingSR {
			if sr.RecvAt <= b {
				plan.SRsDeferred++
			}
		}
	}

	// Garbage-collect capacity bookkeeping, but only for slots that have
	// fully ended: a granted PUSCH in a slot that merely *started* before
	// this boundary may still be on air, and its booking must survive until
	// the slot closes.
	for t := range s.grantedUL {
		if t.Add(s.ulSlotDur()) <= b {
			delete(s.grantedUL, t)
		}
	}
	return plan
}

// placeUL finds UL capacity for one eligible SR at or after earliestUL. The
// returned grant is capped at one slot's transport capacity; when the request
// was larger, the remainder comes back as a non-empty SRRequest to requeue
// (same RecvAt, so its latency history survives the split). ok=false means no
// slot within the grant horizon had room and the SR must be deferred — the
// grant is NOT booked into grantedUL here; the caller does that, keeping the
// walk side-effect-free on failure.
func (s *Scheduler) placeUL(sr SRRequest, earliestUL sim.Time) (g Grant, rem SRRequest, ok bool) {
	bytes := sr.Bytes
	if bytes <= 0 {
		bytes = s.cfg.GrantBytes
	}
	// A request larger than a whole slot can never fit one grant: cap it at
	// the slot capacity and split the rest off. (Previously the capacity
	// walk compared the uncapped request against every slot, a condition
	// that holds even for empty slots — the walk never terminated.)
	grantBytes := bytes
	if grantBytes > s.cfg.ULSlotBytes {
		grantBytes = s.cfg.ULSlotBytes
	}
	ulSlot, found := s.nextULSlot(earliestUL)
	if !found {
		return Grant{}, SRRequest{}, false
	}
	// Walk forward past slots whose capacity is exhausted, giving up at the
	// horizon. (Previously a failed lookup broke out of the walk and booked
	// the grant onto the exhausted slot anyway, pushing grantedUL past
	// ULSlotBytes.)
	for walked := 0; s.grantedUL[ulSlot]+grantBytes > s.cfg.ULSlotBytes; walked++ {
		if walked >= s.cfg.GrantHorizonSlots {
			return Grant{}, SRRequest{}, false
		}
		next, found := s.nextULSlot(ulSlot.Add(s.ulSlotDur()))
		if !found {
			return Grant{}, SRRequest{}, false
		}
		ulSlot = next
	}
	g = Grant{UE: sr.UE, SlotStart: ulSlot, Bytes: grantBytes, InResponseTo: sr.RecvAt}
	if bytes > grantBytes {
		rem = SRRequest{UE: sr.UE, RecvAt: sr.RecvAt, Bytes: bytes - grantBytes}
	}
	return g, rem, true
}

// rrOrder reorders eligible SRs for round-robin fairness: one SR per UE per
// round (FIFO within a UE), UEs ascending, each tick's round starting with
// the first UE strictly after the one that opened the previous round. It
// sorts srs in place and returns the order in scheduler scratch.
func (s *Scheduler) rrOrder(srs []SRRequest) []SRRequest {
	if len(srs) < 2 {
		return srs
	}
	// A stable sort keeps each UE's SRs in arrival order; groups[g] is where
	// the g-th UE's run starts, and the last entry closes the final run.
	slices.SortStableFunc(srs, func(a, b SRRequest) int { return cmp.Compare(a.UE, b.UE) })
	groups := s.rrGroups[:0]
	for i, sr := range srs {
		if i == 0 || sr.UE != srs[i-1].UE {
			groups = append(groups, i)
		}
	}
	ues := len(groups)
	groups = append(groups, len(srs))
	s.rrGroups = groups
	start := 0
	for g := 0; g < ues; g++ {
		if srs[groups[g]].UE > s.rrLast {
			start = g
			break
		}
	}
	out := s.rrOut[:0]
	for round := 0; len(out) < len(srs); round++ {
		for i := 0; i < ues; i++ {
			g := (start + i) % ues
			if at := groups[g] + round; at < groups[g+1] {
				out = append(out, srs[at])
			}
		}
	}
	s.rrOut = out
	return out
}

// ConfiguredGrant returns the standing grant-free allocation for a UE at or
// after t: the next UL-capable slot. Grant-free resources are pre-allocated
// in every UL slot (§5: "in grant-free, the resources are pre-allocated to
// the UE"), at the cost of scalability.
func (s *Scheduler) ConfiguredGrant(ue int, t sim.Time) (Grant, bool) {
	slot, ok := s.nextULSlot(t)
	if !ok {
		return Grant{}, false
	}
	return Grant{UE: ue, SlotStart: slot, Bytes: s.cfg.GrantBytes, InResponseTo: sim.Never}, true
}

// ULSymbolsOfSlot returns how many UL symbols the slot at t carries and the
// start of its first UL symbol (for mixed slots the UL region starts
// mid-slot).
func (s *Scheduler) ULSymbolsOfSlot(t sim.Time) (start sim.Time, syms int) {
	g := s.cfg.ULGrid
	slotStart := g.SlotStart(t)
	base := g.SymbolAt(slotStart)
	for k := 0; k < nr.SymbolsPerSlot; k++ {
		kind := g.KindOfSymbol(base + int64(k))
		if kind == nr.SymUL || kind == nr.SymFlexible {
			if syms == 0 {
				start = g.SymbolStart(base + int64(k))
			}
			syms++
		}
	}
	return start, syms
}
