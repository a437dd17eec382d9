package sim

import (
	"fmt"
	"slices"
	"testing"
)

var laneNames = []string{"ul.offer", "dl.offer"}

// laneSide runs one engine through a random script. Every arrival goes
// through the arrival lane when viaLane is set and through Schedule
// otherwise; everything else (wheel events, their children, Stop) is the
// same on both sides. Reactions draw from the side's own RNG in
// firing order, so two sides stay in lockstep for exactly as long as they
// fire the same events.
type laneSide struct {
	e       *Engine
	viaLane bool
	rng     *RNG
	nextID  int
	log     []string // "<name>#<id>@<ns>" per fired event, from the Sink
	depth   []int    // Pending() as the Sink saw it, per fired event
}

func newLaneSide(seed uint64, viaLane bool) *laneSide {
	d := &laneSide{e: NewEngine(), viaLane: viaLane, rng: NewRNG(seed)}
	d.e.HandleArrivals(d, laneNames)
	d.e.Sink = d
	return d
}

func (d *laneSide) EngineEvent(t Time, name string) {
	d.log = append(d.log, fmt.Sprintf("%s@%d", name, t))
	d.depth = append(d.depth, d.e.Pending())
}

// arrive offers one arrival of kind k at time at.
func (d *laneSide) arrive(k int, at Time) {
	a := Arrival{Kind: uint8(k), ID: d.nextID, UE: -k}
	d.nextID++
	if d.viaLane {
		d.e.Arrive(at, a)
		return
	}
	d.e.Schedule(at, laneNames[k], func() { d.Arrive(a) })
}

// schedule queues an ordinary wheel event at time at.
func (d *laneSide) schedule(at Time) {
	id := d.nextID
	d.nextID++
	d.e.Schedule(at, "ev", func() { d.onEvent(id) })
}

func (d *laneSide) Arrive(a Arrival) {
	d.log[len(d.log)-1] += fmt.Sprintf("#%d/%d/%d", a.ID, a.UE, a.Kind)
	d.react()
}

func (d *laneSide) onEvent(id int) {
	d.log[len(d.log)-1] += fmt.Sprintf("#%d", id)
	d.react()
}

// react is what a fired event does next: nothing, a wheel child, a mid-run
// arrival (often at this very instant), or Stop.
func (d *laneSide) react() {
	now := d.e.Now()
	switch d.rng.Intn(8) {
	case 0, 1:
		d.schedule(futureWhen(d.rng, now))
	case 2:
		d.arrive(d.rng.Intn(2), now)
	case 3, 4:
		d.arrive(d.rng.Intn(2), futureWhen(d.rng, now))
	case 5:
		if d.rng.Intn(4) == 0 {
			d.e.Stop()
		}
	}
}

// futureWhen is randomWhen clamped to now.
func futureWhen(rng *RNG, now Time) Time { return max(randomWhen(rng, now), now) }

// TestLaneDifferential fires the same random events twice, once with every
// arrival pushed through the arrival lanes and once through Schedule. Ties at
// equal instants, arrivals pushed out of order and mid-run, horizons and
// Stop are all in the script. Both runs must fire the same (time, name)
// sequence with the same queue depth at every event, and agree on every
// counter and on the clock after every operation, with Pushes − Pops equal
// to Pending() on both.
func TestLaneDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			lane, wheel := newLaneSide(seed, true), newLaneSide(seed, false)
			script := NewRNG(seed ^ 0x1a4e)
			// Up-front traffic in random order, on a coarse grid so equal
			// instants are common.
			for i := 0; i < 400; i++ {
				at := Time(script.Intn(200)) * 25_000
				if script.Intn(4) == 0 {
					for _, d := range []*laneSide{lane, wheel} {
						d.schedule(at)
					}
					continue
				}
				k := script.Intn(2)
				for _, d := range []*laneSide{lane, wheel} {
					d.arrive(k, at)
				}
			}
			for op := 0; op < 600; op++ {
				var rl, rw any
				switch script.Intn(5) {
				case 0, 1:
					rl, rw = lane.e.Step(), wheel.e.Step()
				case 2, 3:
					h := lane.e.Now() + Time(script.Intn(400_000)) - 20_000
					rl, rw = lane.e.Run(h), wheel.e.Run(h)
				case 4:
					at := futureWhen(script, lane.e.Now())
					k := script.Intn(2)
					lane.arrive(k, at)
					wheel.arrive(k, at)
				}
				if rl != rw {
					t.Fatalf("op %d: lane returned %v, wheel %v", op, rl, rw)
				}
				checkLaneLockstep(t, fmt.Sprintf("op %d", op), lane, wheel)
			}
			for lane.e.Pending() > 0 { // Stop may cut a drain short
				lane.e.RunAll()
				wheel.e.RunAll()
				checkLaneLockstep(t, "drain", lane, wheel)
			}
			if lane.e.Pending() != 0 || len(lane.log) < 400 {
				t.Fatalf("drained with %d pending after %d firings", lane.e.Pending(), len(lane.log))
			}
		})
	}
}

func checkLaneLockstep(t *testing.T, at string, lane, wheel *laneSide) {
	t.Helper()
	if !slices.Equal(lane.log, wheel.log) {
		for i := range min(len(lane.log), len(wheel.log)) {
			if lane.log[i] != wheel.log[i] {
				t.Fatalf("%s: firing %d is %s through the lane, %s through Schedule", at, i, lane.log[i], wheel.log[i])
			}
		}
		t.Fatalf("%s: %d firings through the lane, %d through Schedule", at, len(lane.log), len(wheel.log))
	}
	if !slices.Equal(lane.depth, wheel.depth) {
		t.Fatalf("%s: queue depths seen by the sink differ", at)
	}
	le, we := lane.e, wheel.e
	got := [...]uint64{uint64(le.Now()), le.Steps(), le.Pushes(), le.Pops(), uint64(le.Pending())}
	want := [...]uint64{uint64(we.Now()), we.Steps(), we.Pushes(), we.Pops(), uint64(we.Pending())}
	if got != want {
		t.Fatalf("%s: now/steps/pushes/pops/pending = %v through the lane, %v through Schedule", at, got, want)
	}
	if le.Pushes()-le.Pops() != uint64(le.Pending()) {
		t.Fatalf("%s: pushes−pops = %d, queue %d", at, le.Pushes()-le.Pops(), le.Pending())
	}
}

// countArrivals is an ArrivalHandler that counts.
type countArrivals int

func (c *countArrivals) Arrive(Arrival) { *c++ }

// The lane keeps storage only for the arrivals still queued: a drained lane
// holds no block and no heap, and lane traffic takes no node from the
// engine's pool.
func TestLaneReleasesDrainedStorage(t *testing.T) {
	e := NewEngine()
	var fired countArrivals
	e.HandleArrivals(&fired, []string{"a"})
	const n = 5*laneBlockSize + 7
	for i := 0; i < n; i++ {
		e.Arrive(Time(i/3)*10, Arrival{ID: i, Payload: make([]byte, 1)})
	}
	e.Arrive(5, Arrival{}) // out of order: into the heap
	if e.Pending() != n+1 {
		t.Fatalf("Pending = %d, want %d", e.Pending(), n+1)
	}
	e.Run(Time(n/6) * 10)
	l := &e.arrivals
	if l.head == nil || l.head == l.tail {
		t.Fatal("a half-drained lane should still span several blocks")
	}
	e.RunAll()
	if fired != n+1 || e.Pending() != 0 {
		t.Fatalf("fired %d, pending %d; want %d, 0", fired, e.Pending(), n+1)
	}
	if l.head != nil || l.tail != nil || l.late != nil {
		t.Fatal("a drained lane still holds storage")
	}
	if e.PoolAllocs() != 0 {
		t.Fatalf("PoolAllocs = %d with only lane traffic, want 0", e.PoolAllocs())
	}
}

func TestArrivePastPanics(t *testing.T) {
	e := NewEngine()
	e.HandleArrivals(new(countArrivals), []string{"a"})
	e.Schedule(10, "x", func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("arriving before now did not panic")
		}
	}()
	e.Arrive(9, Arrival{})
}

// With only arrivals queued, all of them past the horizon, Run still
// advances the clock to the horizon, as it does for wheel events.
func TestArriveHorizonAdvancesClock(t *testing.T) {
	e := NewEngine()
	var fired countArrivals
	e.HandleArrivals(&fired, []string{"a"})
	e.Arrive(100, Arrival{})
	if got := e.Run(50); got != 50 || e.Now() != 50 || fired != 0 {
		t.Fatalf("Run(50) = %v, now %v, fired %d; want 50, 50, 0", got, e.Now(), fired)
	}
	if got := e.Run(100); got != 100 || fired != 1 {
		t.Fatalf("Run(100) = %v, fired %d; want 100, 1", got, fired)
	}
}
