package sim

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestNodeSize pins the pooled event node at 56 bytes: when, name, the
// handler, seq and the bucket link, so a 64-node slab is 3,584 bytes; and
// the arrival lane's record at 40 bytes: when, key, id, UE and size, so a
// block of laneBlockSize records and its link fill 8 KiB.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 56 {
		t.Fatalf("node is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(laneEntry{}); got != 40 {
		t.Fatalf("laneEntry is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(laneBlock{}); got > 8192 || got+unsafe.Sizeof(laneEntry{}) <= 8192 {
		t.Fatalf("laneBlock is %d bytes, want the most records that fit 8 KiB", got)
	}
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Duration{5 * Microsecond, Microsecond, 3 * Microsecond} {
		d := d
		e.After(d, "x", func() { fired = append(fired, e.Now()) })
	}
	e.RunAll()
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events out of order: %v", fired)
		}
	}
	if fired[0] != Time(1000) || fired[2] != Time(5000) {
		t.Fatalf("unexpected times %v", fired)
	}
}

func TestEngineFIFOAmongEqualTimestamps(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(Time(42), "tie", Func(func() { order = append(order, i) }))
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order not FIFO at %d: got %v", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 10 {
			e.After(Microsecond, "step", step)
		}
	}
	e.After(0, "start", step)
	end := e.RunAll()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if end != Time(9*1000) {
		t.Fatalf("end = %v, want 9µs", end)
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	var fired []string
	e.After(Microsecond, "a", func() { fired = append(fired, "a") })
	e.After(10*Microsecond, "b", func() { fired = append(fired, "b") })
	now := e.Run(Time(5 * 1000))
	if len(fired) != 1 || fired[0] != "a" {
		t.Fatalf("fired %v before horizon, want [a]", fired)
	}
	if now != Time(5*1000) {
		t.Fatalf("clock %v after horizon run, want 5µs", now)
	}
	e.RunAll()
	if len(fired) != 2 {
		t.Fatalf("fired %v after RunAll, want [a b]", fired)
	}
}

func TestEngineHorizonInclusive(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(Time(5000), "edge", Func(func() { fired = true }))
	e.Run(Time(5000))
	if !fired {
		t.Fatal("event exactly at horizon did not fire")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), "n", Func(func() {
			n++
			if n == 3 {
				e.Stop()
			}
		}))
	}
	e.RunAll()
	if n != 3 {
		t.Fatalf("n = %d after Stop, want 3", n)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(Time(100), "x", Func(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(Time(50), "past", Func(func() {}))
	}))
	e.RunAll()
}

func TestEngineStepAndPending(t *testing.T) {
	e := NewEngine()
	e.After(Microsecond, "a", func() {})
	e.After(2*Microsecond, "b", func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	if !e.Step() {
		t.Fatal("Step returned false with events pending")
	}
	if e.Steps() != 1 {
		t.Fatalf("Steps = %d, want 1", e.Steps())
	}
	if !e.Step() || e.Step() {
		t.Fatal("Step sequence wrong")
	}
}

// Regression (pre-wheel bug): Run(horizon) with horizon < now rewound the
// clock to the horizon, corrupting every later latency measurement.
func TestRunHorizonBeforeNowClamps(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(Time(1000), "a", Func(func() { fired++ }))
	e.Schedule(Time(10000), "b", Func(func() { fired++ }))
	if got := e.Run(Time(5000)); got != Time(5000) {
		t.Fatalf("Run(5µs) = %v, want 5µs", got)
	}
	if got := e.Run(Time(2000)); got != Time(5000) {
		t.Fatalf("Run with horizon < now returned %v, want clock held at 5µs", got)
	}
	if e.Now() != Time(5000) {
		t.Fatalf("clock rewound to %v", e.Now())
	}
	if fired != 1 {
		t.Fatalf("fired = %d after clamped Run, want 1", fired)
	}
	e.RunAll()
	if fired != 2 || e.Now() != Time(10000) {
		t.Fatalf("after RunAll: fired=%d now=%v", fired, e.Now())
	}
}

// Steady-state scheduling must allocate nothing: once the pool holds the
// workload's high-water mark of nodes, schedule+fire cycles reuse them, and
// After's Func adapter stores the func value itself. The warmed benchmark's
// op, EngineScheduleSteady, is pinned at zero here too.
func TestSteadyStateScheduleAllocsZero(t *testing.T) {
	e := NewEngine()
	cycle := func() {
		for j := 0; j < slabSize; j++ {
			e.After(Duration((j*2654435761)%100000), "e", func() {})
		}
		e.RunAll()
	}
	cycle() // warm the pool
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("steady-state schedule+fire allocates %v allocs/cycle, want 0", avg)
	}
	if e.PoolAllocs() > slabSize {
		t.Fatalf("PoolAllocs = %d, want ≤ %d (one slab covers the high-water mark)", e.PoolAllocs(), slabSize)
	}
	if avg := testing.AllocsPerRun(20, engineScheduleSteady(t)); avg != 0 {
		t.Errorf("EngineScheduleSteady: %v allocs/op, want 0", avg)
	}
}

func TestScheduledCountsPushes(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), "n", Func(func() {}))
	}
	if e.Pushes() != 5 {
		t.Fatalf("Pushes = %d, want 5", e.Pushes())
	}
	e.RunAll()
	if e.Pushes() != 5 || e.Pending() != 0 {
		t.Fatalf("Pushes/Pending = %d/%d after run, want 5/0", e.Pushes(), e.Pending())
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(1500)
	b := a.Add(2 * Microsecond)
	if b != Time(3500) {
		t.Fatalf("Add: %v", b)
	}
	if b.Sub(a) != 2*Microsecond {
		t.Fatalf("Sub: %v", b.Sub(a))
	}
	if got := Time(2500).Micros(); got != 2.5 {
		t.Fatalf("Micros = %v", got)
	}
	if got := Time(2_500_000).Millis(); got != 2.5 {
		t.Fatalf("Millis = %v", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincided %d/1000 times", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	root := NewRNG(1)
	f1 := root.Fork(1)
	f2 := root.Fork(2)
	coincide := 0
	for i := 0; i < 1000; i++ {
		if f1.Uint64() == f2.Uint64() {
			coincide++
		}
	}
	if coincide > 0 {
		t.Fatalf("forked streams coincided %d times", coincide)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(4)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ≈10", mean)
	}
	if math.Abs(std-3) > 0.05 {
		t.Fatalf("normal std = %v, want ≈3", std)
	}
}

func TestRNGLogNormalMoments(t *testing.T) {
	r := NewRNG(5)
	d := NewLogNormal(484.2, 89.46) // the paper's RLC-q figures
	const n = 400000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := d.Draw(r)
		if v <= 0 {
			t.Fatalf("log-normal produced non-positive %v", v)
		}
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-484.2)/484.2 > 0.01 {
		t.Fatalf("log-normal mean = %v, want ≈484.2", mean)
	}
	if math.Abs(std-89.46)/89.46 > 0.03 {
		t.Fatalf("log-normal std = %v, want ≈89.46", std)
	}
}

// TestRNGLogNormalDegenerate checks that a zero or negative mean or std is
// refused: no log-normal has it (internal/proc draws those as fixed values).
func TestRNGLogNormalDegenerate(t *testing.T) {
	for _, c := range [][2]float64{{5, 0}, {0, 3}, {-1, 3}, {5, -2}, {math.NaN(), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLogNormal(%v, %v) did not panic", c[0], c[1])
				}
			}()
			NewLogNormal(c[0], c[1])
		}()
	}
}

func TestRNGExponentialMean(t *testing.T) {
	r := NewRNG(7)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(250)
	}
	if mean := sum / n; math.Abs(mean-250)/250 > 0.02 {
		t.Fatalf("exponential mean = %v, want ≈250", mean)
	}
}

func TestRNGBernoulli(t *testing.T) {
	r := NewRNG(9)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("bernoulli(0.25) hit rate %v", p)
	}
}

func TestRNGUniformDuration(t *testing.T) {
	r := NewRNG(10)
	lo, hi := 100*Microsecond, 200*Microsecond
	for i := 0; i < 10000; i++ {
		v := r.UniformDuration(lo, hi)
		if v < lo || v >= hi {
			t.Fatalf("UniformDuration out of range: %v", v)
		}
	}
	if v := r.UniformDuration(hi, lo); v != hi {
		t.Fatalf("degenerate UniformDuration = %v, want lo", v)
	}
}

// Property: the uniform generator stays in range for arbitrary seeds.
func TestRNGPropertyUniformInRange(t *testing.T) {
	f := func(seed uint64, loRaw, span uint32) bool {
		r := NewRNG(seed)
		lo := float64(loRaw)
		hi := lo + float64(span) + 1
		v := r.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: scheduling N events at arbitrary offsets always fires them all,
// in non-decreasing time order.
func TestEnginePropertyAllEventsFireOrdered(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		fired := 0
		last := Time(-1)
		ok := true
		for _, off := range offsets {
			e.Schedule(Time(off), "p", Func(func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				fired++
			}))
		}
		e.RunAll()
		return ok && fired == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
