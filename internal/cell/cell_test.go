package cell

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/sweep"
)

// nodeULSlotBytes is the UL transport capacity node derives at its fixed
// MCS 10 / 106 PRBs (modulation.TBS → 2304 B). The ledger assertion below
// re-checks the scheduler's capacity contract at cell scale against it.
const nodeULSlotBytes = 2304

func TestCell500UEsThroughRealScheduler(t *testing.T) {
	rec := obs.NewRecorder()
	rec.EnableSlotLedger()
	res, err := Run(Config{
		UEs:    500,
		Cycles: 4,
		Seed:   7,
		Obs:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pending != 0 {
		t.Fatalf("unstable cell: %d packets unresolved at horizon (%+v)", res.Pending, *res)
	}
	if res.Offered != 2000 || res.Delivered+res.Lost != res.Offered {
		t.Fatalf("packet accounting broken: %+v", *res)
	}
	if float64(res.Delivered) < 0.999*float64(res.Offered) {
		t.Fatalf("only %d/%d delivered", res.Delivered, res.Offered)
	}
	if res.SRsSent < res.Offered || res.GrantsIssued < res.Delivered {
		t.Fatalf("dynamic grant handshake missing: %+v", *res)
	}

	// Per-UE KPIs come straight from the recorder: every one of the 500
	// machines must appear, fairness must be near-perfect for a symmetric
	// fleet, and the reliability CCDF must be populated.
	rep := analyze.ComputeKPI(analyze.FromRecorder(rec), "cell500")
	if len(rep.UEs) != 500 {
		t.Fatalf("KPI covers %d UEs, want 500", len(rep.UEs))
	}
	for _, u := range rep.UEs[:10] {
		if !u.HasAoI || u.AoIPeakUs <= 0 {
			t.Fatalf("UE %d missing AoI: %+v", u.UE, u)
		}
	}
	if len(rep.Dirs) != 1 || rep.Dirs[0].Dir != obs.DirUL {
		t.Fatalf("want one UL direction aggregate, got %+v", rep.Dirs)
	}
	d := rep.Dirs[0]
	if d.JainThroughput < 0.999 {
		t.Fatalf("symmetric fleet should be fair, Jain=%v", d.JainThroughput)
	}
	if len(d.CCDF) == 0 {
		t.Fatal("empty reliability CCDF")
	}

	// The slot ledger must show real contention — multiple UEs granted per
	// boundary — while no boundary's grants ever exceed one slot's
	// transport capacity (the over-commit bugfix, observed at cell scale).
	slots := rec.Slots()
	if len(slots) == 0 {
		t.Fatal("slot ledger empty")
	}
	maxGrants, maxBytes := 0, 0
	for _, s := range slots {
		if s.GrantsIssued > maxGrants {
			maxGrants = s.GrantsIssued
		}
		if s.ULGrantBytes > maxBytes {
			maxBytes = s.ULGrantBytes
		}
	}
	if maxGrants < 2 {
		t.Fatalf("no multi-UE contention visible in the ledger (max %d grants/tick)", maxGrants)
	}
	if maxBytes > nodeULSlotBytes {
		t.Fatalf("a tick granted %dB, above the %dB slot capacity", maxBytes, nodeULSlotBytes)
	}
}

func TestCellGrantFreeCollisionsDeterministic(t *testing.T) {
	cfg := Config{
		UEs:     64,
		Mode:    ModeGrantFree,
		CGUnits: 6,
		Period:  20 * time.Millisecond,
		Cycles:  6,
		Seed:    2,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different runs:\n%+v\n%+v", *a, *b)
	}
	if a.CGCollisions == 0 {
		t.Fatal("64 UEs on 6 shared units produced no collisions")
	}
	if a.Pending != 0 {
		t.Fatalf("%d packets unresolved", a.Pending)
	}
	if a.SRsSent != 0 || a.GrantsIssued != 0 {
		t.Fatalf("grant-free mode used the SR handshake: %+v", *a)
	}

	// A different seed must reshuffle the contention.
	cfg.Seed = 3
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestCellGrantFreeDegradesWithLoad(t *testing.T) {
	// The LENA comparison in one assertion: with the shared allocation
	// fixed, more machines ⇒ more collisions per offered packet.
	rate := func(ues int) float64 {
		r, err := Run(Config{
			UEs: ues, Mode: ModeGrantFree, CGUnits: 12,
			Period: 20 * time.Millisecond, Cycles: 4, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.CGCollisions) / float64(r.Offered)
	}
	lo, hi := rate(16), rate(256)
	if hi <= lo {
		t.Fatalf("collision rate did not grow with load: %d UEs → %.3f, %d UEs → %.3f", 16, lo, 256, hi)
	}
}

// TestCellSweepWorkerInvariance shards a grid of cell runs through
// internal/sweep and asserts the merged, formatted output is identical for 1
// and 4 workers — the contract that keeps urllc-experiments' -parallel flag
// byte-stable for the cell experiments.
func TestCellSweepWorkerInvariance(t *testing.T) {
	type point struct {
		ues  int
		mode Mode
	}
	grid := []point{
		{8, ModeDynamic}, {8, ModeGrantFree},
		{24, ModeDynamic}, {24, ModeGrantFree},
	}
	rows := func(workers int) []string {
		out, err := sweep.Run(workers, len(grid), func(i int) (string, error) {
			p := grid[i]
			r, err := Run(Config{
				UEs: p.ues, Mode: p.mode, CGUnits: 4,
				Period: 10 * time.Millisecond, Cycles: 3,
				Seed: sweep.Seed(42, i),
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d %s %d/%d coll=%d worst=%v",
				p.ues, p.mode, r.Delivered, r.Offered, r.CGCollisions, r.WorstUL), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, parallel := rows(1), rows(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("worker count changed cell results:\n1: %v\n4: %v", serial, parallel)
	}
}

// cellOpAllocs counts the allocations of one cell.Run op of cfg, every one
// of whose offered packets must resolve. Each op starts from a collected
// heap, as the benchmark's ops do, so no collection runs inside it and the
// runtime's background allocations stay out of the count; runtime.GC's own
// count is measured alone and subtracted. The count repeats because nothing
// on the op's path allocates by a map's random hash seed.
func cellOpAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race runtime allocates too; the exact pin runs without -race (make allocs)")
	}
	op := func() {
		runtime.GC()
		res, err := Run(cfg)
		if err != nil || res.Pending != 0 || res.Offered != cfg.UEs*cfg.Cycles {
			t.Fatalf("cell run: %+v, %v", res, err)
		}
	}
	gc := testing.AllocsPerRun(3, runtime.GC)
	return testing.AllocsPerRun(5, op) - gc
}

// TestGrantFreeCellAllocs pins the allocations of one grant-free 128-UE
// cell op (the benchmark's cell-grantfree workload at seed 1: 16 cycles of
// 20 ms, 1 ms jitter, 12 contention units, 8-slot backoff) at exactly the
// count it makes. The contention bookings, whose delete and insert churn
// made a map grow one table more in some ops, are a slice.
func TestGrantFreeCellAllocs(t *testing.T) {
	got := cellOpAllocs(t, Config{
		UEs: 128, Mode: ModeGrantFree, Cycles: 16, Period: 20 * time.Millisecond,
		Jitter: time.Millisecond, CGUnits: 12, CGBackoffSlots: 8, Seed: 1,
	})
	// Measured: 227, about 0.11 per packet: the set-up, one context chunk
	// per 8 packets in flight at the peak and the fleet sort's 3 per cycle
	// (469 while every packet's context was carved anew, 479 while every op's
	// arrival lane allocated its blocks, 756 while each
	// machine's jitter stream and each UE's contention stream was its own
	// allocation and every fleet cycle allocated its packets; 6648 while every packet allocated its payload,
	// its context and the context's bound handler; 6692 or 6694 before the
	// bookings left the map and the Table 2 accumulators moved into the
	// System).
	const want = 227
	if got != want {
		t.Errorf("grant-free cell op: %v allocs, want %d", got, want)
	}
}

// TestDynamicCellAllocs pins the allocations of one dynamic-grant 500-UE
// cell op (the benchmark's cell-dynamic workload at seed 1: 4 cycles of
// 20 ms, 1 ms jitter) at exactly the count it makes.
func TestDynamicCellAllocs(t *testing.T) {
	got := cellOpAllocs(t, Config{
		UEs: 500, Cycles: 4, Period: 20 * time.Millisecond, Jitter: time.Millisecond, Seed: 1,
	})
	// Measured: 312, about 0.16 per packet: the set-up, one context chunk
	// per 8 packets in flight at the peak and the fleet sort's 3 per cycle
	// (529 while every packet's context was carved anew, 539 while every op's
	// arrival lane allocated its blocks, 1043 while each
	// machine's jitter stream was its own allocation and every fleet cycle
	// allocated its packets).
	const want = 312
	if got != want {
		t.Errorf("dynamic cell op: %v allocs, want %d", got, want)
	}
}
