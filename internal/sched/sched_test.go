package sched

import (
	"testing"

	"urllcsim/internal/nr"
	"urllcsim/internal/sim"
)

func ddduScheduler(t *testing.T, margin int) *Scheduler {
	t.Helper()
	g, err := nr.BuildGrid(nr.CommonConfig{Mu: nr.Mu1, Pattern1: nr.PatternDDDU(nr.Mu1)}, 2, "DDDU")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Grid: g, MarginSlots: margin, K2Slots: 1, DLSlotBytes: 5000, ULSlotBytes: 4000, GrantBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const slot = sim.Time(500 * 1000) // µ1 slot in ns

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil grid accepted")
	}
	g, _ := nr.BuildGrid(nr.CommonConfig{Mu: nr.Mu1, Pattern1: nr.PatternDDDU(nr.Mu1)}, 2, "DDDU")
	if _, err := New(Config{Grid: g, MarginSlots: -1, DLSlotBytes: 1, ULSlotBytes: 1}); err == nil {
		t.Fatal("negative margin accepted")
	}
	if _, err := New(Config{Grid: g, DLSlotBytes: 0, ULSlotBytes: 1}); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestDLAllocationFIFO(t *testing.T) {
	s := ddduScheduler(t, 1)
	queue := []DLItem{
		{ID: 1, UE: 1, Bytes: 2000, EnqueuedAt: 0},
		{ID: 2, UE: 2, Bytes: 2000, EnqueuedAt: 10},
		{ID: 3, UE: 1, Bytes: 2000, EnqueuedAt: 20}, // exceeds 5000B capacity
	}
	plan := s.Tick(0, queue)
	if plan.TargetDL != slot {
		t.Fatalf("target = %v, want %v", plan.TargetDL, slot)
	}
	if len(plan.DLPlanned) != 2 || plan.DLPlanned[0] != 1 || plan.DLPlanned[1] != 2 {
		t.Fatalf("planned = %v, want FIFO [1 2]", plan.DLPlanned)
	}
	if len(plan.DLAllocs) != 2 {
		t.Fatalf("allocs = %+v", plan.DLAllocs)
	}
	for _, a := range plan.DLAllocs {
		if a.SlotStart != slot || a.Bytes != 2000 {
			t.Fatalf("alloc = %+v", a)
		}
	}
}

func TestDLAllocationMergesPerUE(t *testing.T) {
	s := ddduScheduler(t, 1)
	queue := []DLItem{
		{ID: 1, UE: 7, Bytes: 1000},
		{ID: 2, UE: 7, Bytes: 1500},
	}
	plan := s.Tick(0, queue)
	if len(plan.DLAllocs) != 1 || plan.DLAllocs[0].Bytes != 2500 || len(plan.DLAllocs[0].ItemIDs) != 2 {
		t.Fatalf("merge failed: %+v", plan.DLAllocs)
	}
}

func TestNoDLSlotNoAllocation(t *testing.T) {
	// DDDU with margin 1: boundary at slot 2 targets slot 3 (UL) — no DL.
	s := ddduScheduler(t, 1)
	plan := s.Tick(2*slot, []DLItem{{ID: 1, UE: 1, Bytes: 100}})
	if plan.TargetDL != sim.Never || len(plan.DLPlanned) != 0 {
		t.Fatalf("allocated into a UL slot: %+v", plan)
	}
}

func TestSRGrantTiming(t *testing.T) {
	s := ddduScheduler(t, 1)
	// SR decoded at t=100µs (during slot 0).
	s.OnSR(SRRequest{UE: 3, RecvAt: sim.Time(100_000), Bytes: 300})
	if s.PendingSRs() != 1 {
		t.Fatal("SR not recorded")
	}
	// Boundary at slot 1 (t=0.5ms): grant rides slot 2's control (margin 1);
	// earliest UL = target + (1+k2)=2 slots = slot 4 → but slot 4 is DL
	// (pattern DDDU repeats: slot 4=D, 5=D, 6=D, 7=U) → slot 7.
	plan := s.Tick(slot, nil)
	if len(plan.ULGrants) != 1 {
		t.Fatalf("grants = %+v", plan.ULGrants)
	}
	g := plan.ULGrants[0]
	if g.UE != 3 || g.Bytes != 300 {
		t.Fatalf("grant = %+v", g)
	}
	if g.SlotStart != 7*slot {
		t.Fatalf("grant slot = %v, want slot 7 (%v)", g.SlotStart, 7*slot)
	}
	if s.PendingSRs() != 0 {
		t.Fatal("SR not consumed")
	}
}

func TestSRNotGrantedBeforeDecoded(t *testing.T) {
	s := ddduScheduler(t, 1)
	s.OnSR(SRRequest{UE: 3, RecvAt: sim.Time(600_000)}) // decoded during slot 1
	plan := s.Tick(slot, nil)                           // boundary at 0.5ms: SR not yet decoded
	if len(plan.ULGrants) != 0 || s.PendingSRs() != 1 {
		t.Fatalf("premature grant: %+v", plan.ULGrants)
	}
	plan = s.Tick(2*slot, nil) // boundary slot2 targets slot 3 = UL → no DL control
	if len(plan.ULGrants) != 0 {
		t.Fatal("grant issued without DL control opportunity")
	}
	plan = s.Tick(3*slot, nil) // targets slot 4 (D): grant goes out
	if len(plan.ULGrants) != 1 {
		t.Fatalf("grant missing: %+v", plan)
	}
}

func TestULCapacitySpillsToNextSlot(t *testing.T) {
	s := ddduScheduler(t, 1)
	for i := 0; i < 3; i++ {
		s.OnSR(SRRequest{UE: i, RecvAt: 0, Bytes: 2000}) // 2 fit per 4000B slot
	}
	plan := s.Tick(slot, nil)
	if len(plan.ULGrants) != 3 {
		t.Fatalf("grants = %d", len(plan.ULGrants))
	}
	slots := map[sim.Time]int{}
	for _, g := range plan.ULGrants {
		slots[g.SlotStart] += g.Bytes
	}
	if len(slots) != 2 {
		t.Fatalf("grants packed into %d slots, want spill to 2: %v", len(slots), slots)
	}
	for t0, b := range slots {
		if b > 4000 {
			t.Fatalf("slot %v over capacity: %d", t0, b)
		}
	}
}

func TestZeroByteSRUsesDefaultGrant(t *testing.T) {
	s := ddduScheduler(t, 1)
	s.OnSR(SRRequest{UE: 1, RecvAt: 0, Bytes: 0})
	plan := s.Tick(slot, nil)
	if len(plan.ULGrants) != 1 || plan.ULGrants[0].Bytes != 200 {
		t.Fatalf("default grant wrong: %+v", plan.ULGrants)
	}
}

func TestConfiguredGrant(t *testing.T) {
	s := ddduScheduler(t, 1)
	g, ok := s.ConfiguredGrant(5, sim.Time(100))
	if !ok || g.SlotStart != 3*slot {
		t.Fatalf("configured grant = %+v, want slot 3", g)
	}
	if g.InResponseTo != sim.Never {
		t.Fatal("configured grant must not reference an SR")
	}
	// From inside the UL slot, the next opportunity is the next pattern's
	// UL slot.
	g2, _ := s.ConfiguredGrant(5, 3*slot+1)
	if g2.SlotStart != 7*slot {
		t.Fatalf("next configured grant = %v, want slot 7", g2.SlotStart)
	}
}

func TestULSymbolsOfSlot(t *testing.T) {
	s := ddduScheduler(t, 1)
	start, syms := s.ULSymbolsOfSlot(3 * slot)
	if syms != 14 || start != 3*slot {
		t.Fatalf("UL slot 3: start=%v syms=%d", start, syms)
	}
	_, syms = s.ULSymbolsOfSlot(0)
	if syms != 0 {
		t.Fatalf("DL slot 0 has %d UL symbols", syms)
	}
}

func TestMixedSlotULRegion(t *testing.T) {
	g, err := nr.BuildGrid(nr.CommonConfig{Mu: nr.Mu2, Pattern1: nr.PatternDM(nr.Mu2, 6, 6)}, 0, "DM")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Grid: g, MarginSlots: 0, DLSlotBytes: 1000, ULSlotBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	mixedStart := sim.Time(250_000)
	start, syms := s.ULSymbolsOfSlot(mixedStart)
	if syms != 6 {
		t.Fatalf("mixed slot UL symbols = %d, want 6", syms)
	}
	wantStart := mixedStart + sim.Time(8*250_000/14)
	if start != wantStart {
		t.Fatalf("mixed UL region starts at %v, want %v", start, wantStart)
	}
}

// TestOversizedBSRTerminatesAndSplits: an SR whose buffer estimate exceeds a
// whole slot's transport capacity must terminate the capacity walk (the walk
// previously never terminated — its condition held even for empty slots) and
// be served as a capped grant per tick with the remainder requeued.
func TestOversizedBSRTerminatesAndSplits(t *testing.T) {
	s := ddduScheduler(t, 1)
	s.OnSR(SRRequest{UE: 5, RecvAt: 0, Bytes: 9500}) // 4000B UL slots → 3 grants

	granted := 0
	ticks := 0
	for b := slot; granted < 9500 && ticks < 64; b, ticks = b+slot, ticks+1 {
		plan := s.Tick(b, nil)
		for _, g := range plan.ULGrants {
			if g.UE != 5 {
				t.Fatalf("grant for wrong UE: %+v", g)
			}
			if g.Bytes > 4000 {
				t.Fatalf("grant exceeds slot capacity: %+v", g)
			}
			granted += g.Bytes
		}
		if len(plan.ULGrants) > 0 && plan.SRsSplit == 0 && granted < 9500 {
			t.Fatalf("split grant not counted: %+v", plan)
		}
	}
	if granted != 9500 {
		t.Fatalf("granted %dB of 9500B after %d ticks", granted, ticks)
	}
	if s.PendingSRs() != 0 {
		t.Fatalf("split remainder left pending: %d", s.PendingSRs())
	}
}

// TestHorizonFullDefersInsteadOfOvercommit: when every UL slot within the
// grant horizon is already at capacity, the SR must be deferred (counted in
// SRsDeferred, kept pending) — never booked onto an exhausted slot, which
// previously pushed grantedUL past ULSlotBytes.
func TestHorizonFullDefersInsteadOfOvercommit(t *testing.T) {
	g, err := nr.BuildGrid(nr.CommonConfig{Mu: nr.Mu1, Pattern1: nr.PatternDDDU(nr.Mu1)}, 2, "DDDU")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Grid: g, MarginSlots: 1, K2Slots: 1,
		DLSlotBytes: 5000, ULSlotBytes: 4000, GrantBytes: 200, GrantHorizonSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A 2-step horizon reaches the earliest eligible UL slot plus two more:
	// 3×4000B of capacity. Offer 5 SRs of 4000B; the first three fill the
	// horizon, the remaining two must defer.
	for i := 0; i < 5; i++ {
		s.OnSR(SRRequest{UE: i, RecvAt: 0, Bytes: 4000})
	}
	plan := s.Tick(slot, nil)
	if len(plan.ULGrants) == 0 {
		t.Fatal("no grants at all")
	}
	if plan.SRsDeferred == 0 {
		t.Fatalf("horizon exhausted but nothing deferred: %+v", plan)
	}
	if len(plan.ULGrants)+plan.SRsDeferred != 5 {
		t.Fatalf("grants %d + deferred %d != 5 SRs", len(plan.ULGrants), plan.SRsDeferred)
	}
	if s.PendingSRs() != plan.SRsDeferred {
		t.Fatalf("deferred SRs dropped: %d pending, %d deferred", s.PendingSRs(), plan.SRsDeferred)
	}
	for slotStart, bytes := range s.grantedUL {
		if bytes > 4000 {
			t.Fatalf("slot %v over-committed: %dB > 4000B", slotStart, bytes)
		}
	}
	// Deferred SRs are served once earlier bookings age out.
	total := len(plan.ULGrants)
	for b := 2 * slot; s.PendingSRs() > 0 && b < 100*slot; b += slot {
		total += len(s.Tick(b, nil).ULGrants)
	}
	if total != 5 {
		t.Fatalf("only %d of 5 SRs ever granted", total)
	}
}

// TestGrantedULGCKeepsOnAirSlot: a granted UL slot that has started but not
// yet ended at a boundary must keep its capacity bookkeeping (it is still on
// air); only fully-ended slots are collected.
func TestGrantedULGCKeepsOnAirSlot(t *testing.T) {
	s := ddduScheduler(t, 1)
	s.OnSR(SRRequest{UE: 1, RecvAt: 0, Bytes: 4000})
	plan := s.Tick(slot, nil)
	if len(plan.ULGrants) != 1 {
		t.Fatalf("grants = %+v", plan.ULGrants)
	}
	granted := plan.ULGrants[0].SlotStart
	// A boundary strictly inside the granted slot: the PUSCH is on air.
	s.Tick(granted+slot/2, nil)
	if _, ok := s.grantedUL[granted]; !ok {
		t.Fatalf("bookkeeping for on-air slot %v collected at mid-slot boundary", granted)
	}
	// Once the slot has fully ended it is collectable.
	s.Tick(granted+slot, nil)
	if _, ok := s.grantedUL[granted]; ok {
		t.Fatalf("bookkeeping for ended slot %v survives", granted)
	}
}

// TestSRStormRespectsCapacity: 64 UEs raise SRs before one boundary; across
// all ticks no UL slot's granted bytes may ever exceed ULSlotBytes, and every
// SR is eventually served exactly once.
func TestSRStormRespectsCapacity(t *testing.T) {
	s := ddduScheduler(t, 1)
	const ues = 64
	for i := 0; i < ues; i++ {
		s.OnSR(SRRequest{UE: i, RecvAt: 0, Bytes: 500}) // 8 per 4000B slot
	}
	perSlot := map[sim.Time]int{}
	served := map[int]int{}
	for b := slot; b < 200*slot; b += slot {
		plan := s.Tick(b, nil)
		for _, g := range plan.ULGrants {
			perSlot[g.SlotStart] += g.Bytes
			served[g.UE]++
		}
		if s.PendingSRs() == 0 {
			break
		}
	}
	for slotStart, bytes := range perSlot {
		if bytes > 4000 {
			t.Fatalf("slot %v granted %dB > 4000B capacity", slotStart, bytes)
		}
	}
	if len(served) != ues {
		t.Fatalf("%d of %d UEs served", len(served), ues)
	}
	for ue, n := range served {
		if n != 1 {
			t.Fatalf("UE %d granted %d times", ue, n)
		}
	}
}

// TestRoundRobinFairness: under FairRoundRobin a UE with a deep SR backlog
// cannot capture consecutive grants while other UEs wait.
func TestRoundRobinFairness(t *testing.T) {
	g, err := nr.BuildGrid(nr.CommonConfig{Mu: nr.Mu1, Pattern1: nr.PatternDDDU(nr.Mu1)}, 2, "DDDU")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Grid: g, MarginSlots: 1, K2Slots: 1,
		DLSlotBytes: 5000, ULSlotBytes: 4000, GrantBytes: 200, Fairness: FairRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	// UE 0 floods 6 SRs before UEs 1..3 send one each.
	for i := 0; i < 6; i++ {
		s.OnSR(SRRequest{UE: 0, RecvAt: 0, Bytes: 1000})
	}
	for ue := 1; ue <= 3; ue++ {
		s.OnSR(SRRequest{UE: ue, RecvAt: 0, Bytes: 1000})
	}
	plan := s.Tick(slot, nil)
	if len(plan.ULGrants) < 4 {
		t.Fatalf("grants = %d", len(plan.ULGrants))
	}
	// The first full round serves each UE once before UE 0's second SR.
	firstFour := map[int]bool{}
	for _, g := range plan.ULGrants[:4] {
		firstFour[g.UE] = true
	}
	if len(firstFour) != 4 {
		t.Fatalf("first round not one-per-UE: %+v", plan.ULGrants[:4])
	}
}

func TestGrantCapacityGCPastSlots(t *testing.T) {
	s := ddduScheduler(t, 1)
	s.OnSR(SRRequest{UE: 1, RecvAt: 0, Bytes: 4000})
	s.Tick(slot, nil)
	if len(s.grantedUL) == 0 {
		t.Fatal("capacity bookkeeping empty after grant")
	}
	s.Tick(100*slot, nil)
	if len(s.grantedUL) != 0 {
		t.Fatalf("stale capacity entries survive: %v", s.grantedUL)
	}
}

// TestPlanOccupancyAccounting: the ledger-facing fields of Plan — capacity,
// usage and deferred-SR counts — match the allocation the tick performed.
func TestPlanOccupancyAccounting(t *testing.T) {
	s := ddduScheduler(t, 1)

	// DL-capable tick: capacity is the configured slot bytes, usage the FIFO
	// take (2000+2000 fits, the third 2000B item blocks on remaining 1000B).
	queue := []DLItem{
		{ID: 1, UE: 1, Bytes: 2000},
		{ID: 2, UE: 2, Bytes: 2000},
		{ID: 3, UE: 1, Bytes: 2000},
	}
	plan := s.Tick(0, queue)
	if plan.DLCapBytes != 5000 || plan.DLUsedBytes != 4000 {
		t.Fatalf("cap/used = %d/%d, want 5000/4000", plan.DLCapBytes, plan.DLUsedBytes)
	}
	if plan.SRsDeferred != 0 {
		t.Fatalf("no SRs pending but %d deferred", plan.SRsDeferred)
	}

	// Tick with no DL-capable target: zero capacity, and every SR eligible at
	// the boundary counts as deferred (no PDCCH to carry a grant).
	s.OnSR(SRRequest{UE: 1, RecvAt: 0})
	s.OnSR(SRRequest{UE: 2, RecvAt: 0})
	s.OnSR(SRRequest{UE: 3, RecvAt: 5 * slot}) // not yet decoded — not deferred
	plan = s.Tick(2*slot, nil)
	if plan.TargetDL != sim.Never || plan.DLCapBytes != 0 || plan.DLUsedBytes != 0 {
		t.Fatalf("UL-slot tick claims DL capacity: %+v", plan)
	}
	if plan.SRsDeferred != 2 {
		t.Fatalf("deferred = %d, want the 2 eligible SRs", plan.SRsDeferred)
	}
	if s.PendingSRs() != 3 {
		t.Fatalf("deferral must not drop SRs: %d pending", s.PendingSRs())
	}

	// Next DL-capable tick grants the eligible SRs: issued, not deferred.
	plan = s.Tick(4*slot, nil)
	if len(plan.ULGrants) != 2 || plan.SRsDeferred != 0 {
		t.Fatalf("grants=%d deferred=%d, want 2/0: %+v", len(plan.ULGrants), plan.SRsDeferred, plan)
	}
	if plan.DLCapBytes != 5000 || plan.DLUsedBytes != 0 {
		t.Fatalf("empty queue must leave capacity unused: %+v", plan)
	}
}

// A steady-state round-robin Tick allocates nothing: the eligible SRs,
// their round-robin order and the plan's grants, DL allocations and
// planned IDs all reuse the scheduler's workspaces across ticks.
func TestTickZeroAllocs(t *testing.T) {
	g, err := nr.BuildGrid(nr.CommonConfig{Mu: nr.Mu1, Pattern1: nr.PatternDDDU(nr.Mu1)}, 2, "DDDU")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Grid: g, MarginSlots: 1, K2Slots: 1,
		DLSlotBytes: 5000, ULSlotBytes: 4000, GrantBytes: 200, Fairness: FairRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	queue := []DLItem{{ID: 1, UE: 2, Bytes: 100}, {ID: 2, UE: 1, Bytes: 100}, {ID: 3, UE: 2, Bytes: 100}}
	period := sim.Duration(4 * slot) // DDDU: the DL-capable boundaries repeat every period
	b := sim.Time(0)
	tick := func() {
		for _, ue := range []int{3, 1, 3, 2} {
			s.OnSR(SRRequest{UE: ue, RecvAt: b, Bytes: 100})
		}
		b = b.Add(period)
		plan := s.Tick(b, queue)
		if len(plan.ULGrants) != 4 || len(plan.DLAllocs) != 2 || len(plan.DLPlanned) != 3 {
			t.Fatalf("plan at %v: %d grants, %d DL allocs, %d planned", b, len(plan.ULGrants), len(plan.DLAllocs), len(plan.DLPlanned))
		}
	}
	for i := 0; i < 10; i++ {
		tick()
	}
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Fatalf("steady-state Tick: %v allocs, want 0", n)
	}
}
