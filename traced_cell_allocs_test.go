package urllcsim_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"urllcsim"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/sim"
	"urllcsim/internal/workload"
)

// TestTracedCellOpAllocs pins the allocations of one op of the benchmark's
// cell-traced workload at seed 1: a fresh recorder with the slot ledger,
// the 500-UE dynamic-grant cell (4 cycles of 20 ms, 1 ms jitter, 500 µs
// deadline), the KPI pass, and the JSONL, slot and KPI writers into a
// reused buffer. Each op starts from a collected heap, so no collection
// runs inside it; runtime.GC's own count is measured alone and subtracted.
// The count repeats exactly: no map on the path grows by its hash seed.
func TestTracedCellOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates too; the exact pin runs without -race (make allocs)")
	}
	const ues, cycles = 500, 4
	var out bytes.Buffer
	op := func() {
		rec := obs.NewRecorder()
		rec.EnableSlotLedger()
		sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
			Pattern: urllcsim.PatternDU, SlotScale: urllcsim.Slot0p5ms, RoundRobin: true,
			Deadline: 500 * time.Microsecond, Seed: 1, Obs: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		f := workload.NewFleet(ues, 20*sim.Millisecond, sim.Millisecond, 32, sim.NewRNG(1^0xCE11F1EE7))
		var last time.Duration
		for _, p := range workload.TakeFleet(f, ues*cycles) {
			sc.SendUplinkFrom(p.UE, time.Duration(p.Arrival), p.Bytes)
			last = max(last, time.Duration(p.Arrival))
		}
		if rs := sc.Run(last + 200*time.Millisecond); len(rs) != ues*cycles {
			t.Fatalf("resolved %d of %d packets", len(rs), ues*cycles)
		}
		rep := analyze.ComputeKPI(analyze.FromRecorder(rec), "cell-traced")
		out.Reset()
		if err := obs.WriteJSONL(&out, rec); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteSlotsJSONL(&out, rec.Slots(), "cell-traced"); err != nil {
			t.Fatal(err)
		}
		if err := analyze.WriteKPIJSONL(&out, rep); err != nil {
			t.Fatal(err)
		}
	}
	op() // grows out to the exports' size
	gc := testing.AllocsPerRun(3, runtime.GC)
	got := testing.AllocsPerRun(5, func() {
		runtime.GC()
		op()
	}) - gc
	// 798 since packet contexts are recycled (1,015 while every packet's
	// context was carved anew).
	const want = 798
	if got != want {
		t.Errorf("cell-traced op: %v allocs, want %d", got, want)
	}
}
