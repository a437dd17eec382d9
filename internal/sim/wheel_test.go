package sim

import (
	"fmt"
	"testing"
)

// refEvent is one scheduling in the reference model.
type refEvent struct {
	when  Time
	fired bool
}

// refModel is the specification the wheel engine must match bit-for-bit: a
// naive event list fired in (when, insertion-order) order, with the engine's
// documented clock semantics. It is deliberately O(n) per operation — too
// slow to ship, trivially auditable.
type refModel struct {
	now Time
	evs []*refEvent
}

func (m *refModel) schedule(when Time) *refEvent {
	ev := &refEvent{when: when}
	m.evs = append(m.evs, ev)
	return ev
}

func (m *refModel) pending() int {
	n := 0
	for _, ev := range m.evs {
		if !ev.fired {
			n++
		}
	}
	return n
}

// next returns the earliest unfired event: minimum when, FIFO among equals
// (slice order is insertion order).
func (m *refModel) next() *refEvent {
	var best *refEvent
	for _, ev := range m.evs {
		if ev.fired {
			continue
		}
		if best == nil || ev.when < best.when {
			best = ev
		}
	}
	return best
}

func (m *refModel) step(fire func(*refEvent)) bool {
	ev := m.next()
	if ev == nil {
		return false
	}
	m.now = ev.when
	ev.fired = true
	fire(ev)
	return true
}

func (m *refModel) run(horizon Time, fire func(*refEvent)) Time {
	if horizon >= 0 && horizon < m.now {
		return m.now
	}
	for {
		ev := m.next()
		if ev == nil {
			return m.now
		}
		if horizon >= 0 && ev.when > horizon {
			m.now = horizon
			return m.now
		}
		m.now = ev.when
		ev.fired = true
		fire(ev)
	}
}

// diffHarness drives the wheel engine and the reference model through the
// same operation sequence and fails on the first observable divergence:
// firing order, firing times, clock or queue length.
type diffHarness struct {
	t   *testing.T
	e   *Engine
	m   *refModel
	rng *RNG

	// scheduled counts the engine's schedulings; id i on the engine side is
	// models[i] on the model side, both numbered in creation order (which
	// the harness asserts is identical, since children are created inside
	// fire callbacks).
	scheduled int
	models    []*refEvent

	engLog []string // "<id>@<ns>" per fired event
	modLog []string

	childSpec func(id int) (offset Time, ok bool)
}

func (h *diffHarness) schedule(when Time) {
	id := h.scheduled
	h.scheduled++
	h.e.Schedule(when, "d", Func(func() { h.fireEngine(id) }))
	h.models = append(h.models, h.m.schedule(when))
}

// fireEngine logs an engine-side firing and, per childSpec, schedules a
// child from inside the callback — exercising same-instant appends and
// reschedule-during-fire on both sides identically.
func (h *diffHarness) fireEngine(id int) {
	h.engLog = append(h.engLog, fmt.Sprintf("%d@%d", id, h.e.Now()))
	if off, ok := h.childSpec(id); ok {
		cid := h.scheduled
		h.scheduled++
		h.e.Schedule(h.e.Now()+off, "c", Func(func() { h.fireEngine(cid) }))
		// The model side of the child is appended by fireModel for the
		// same id, in the same order, as long as firing order matches.
	}
}

func (h *diffHarness) fireModel(ev *refEvent) {
	var id int
	for i, m := range h.models {
		if m == ev {
			id = i
			break
		}
	}
	h.modLog = append(h.modLog, fmt.Sprintf("%d@%d", id, h.m.now))
	if off, ok := h.childSpec(id); ok {
		h.models = append(h.models, h.m.schedule(h.m.now+off))
	}
}

func (h *diffHarness) check(op string) {
	h.t.Helper()
	if h.e.Now() != h.m.now {
		h.t.Fatalf("%s: clock diverged: engine %v, model %v", op, h.e.Now(), h.m.now)
	}
	if h.e.Pending() != h.m.pending() {
		h.t.Fatalf("%s: pending diverged: engine %d, model %d", op, h.e.Pending(), h.m.pending())
	}
	if h.e.Pushes()-h.e.Pops() != uint64(h.e.Pending()) {
		h.t.Fatalf("%s: pushes−pops = %d, queue %d", op, h.e.Pushes()-h.e.Pops(), h.e.Pending())
	}
	if len(h.engLog) != len(h.modLog) {
		h.t.Fatalf("%s: fired %d vs model %d events", op, len(h.engLog), len(h.modLog))
	}
	for i := range h.engLog {
		if h.engLog[i] != h.modLog[i] {
			h.t.Fatalf("%s: firing %d diverged: engine %s, model %s", op, i, h.engLog[i], h.modLog[i])
		}
	}
	if h.scheduled != len(h.models) {
		h.t.Fatalf("%s: scheduling count diverged: %d vs %d", op, h.scheduled, len(h.models))
	}
}

// randomWhen produces offsets that deliberately straddle wheel boundaries:
// same-instant ties, sub-slot offsets, the 64/4096/262144 cascade edges, and
// far-future times several levels up.
func randomWhen(rng *RNG, now Time) Time {
	switch rng.Uint64() % 8 {
	case 0: // same instant (FIFO tiebreak)
		return now
	case 1: // within the level-0 block
		return now + Time(rng.Uint64()%64)
	case 2, 3: // slot-aligned clustering, the dominant DES pattern
		slot := Time(500_000) // 0.5 ms
		k := Time(rng.Uint64() % 8)
		return ((now / slot) + 1 + k) * slot
	case 4: // straddle a cascade edge at a random level
		lvl := 1 + rng.Uint64()%4
		span := Time(1) << (6 * lvl)
		edge := (now/span + 1) * span
		return edge + Time(rng.Uint64()%128) - 64
	case 5: // far future, several levels up
		return now + Time(rng.Uint64()%(1<<40))
	default:
		return now + Time(rng.Uint64()%100_000)
	}
}

// TestWheelDifferential replays random schedule/step/run sequences against
// the reference model. Identical firing order and times, identical clock and
// Pending() after every operation, and Pushes − Pops equal to Pending().
func TestWheelDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := NewRNG(seed)
			h := &diffHarness{t: t, e: NewEngine(), m: &refModel{}, rng: rng}
			h.childSpec = func(id int) (Time, bool) {
				if id%5 != 0 {
					return 0, false
				}
				return Time((id * 2654435761) % 5000), true
			}
			for op := 0; op < 3000; op++ {
				switch rng.Uint64() % 8 {
				case 0, 1, 2, 3: // schedule
					w := randomWhen(rng, h.e.Now())
					if w < h.e.Now() {
						w = h.e.Now()
					}
					h.schedule(w)
				case 4, 5: // single step
					got := h.e.Step()
					want := h.m.step(h.fireModel)
					if got != want {
						t.Fatalf("op %d: Step() = %v, model %v", op, got, want)
					}
				case 6: // bounded run, sometimes with horizon < now
					horizon := h.e.Now() + Time(rng.Uint64()%1_000_000) - 5_000
					if horizon < 0 {
						horizon = 0
					}
					if h.e.Run(horizon) != h.m.run(horizon, h.fireModel) {
						t.Fatalf("op %d: Run(%v) return diverged", op, horizon)
					}
				case 7: // drain completely
					if h.e.RunAll() != h.m.run(Never, h.fireModel) {
						t.Fatalf("op %d: RunAll return diverged", op)
					}
				}
				h.check(fmt.Sprintf("op %d", op))
			}
			h.e.RunAll()
			h.m.run(Never, h.fireModel)
			h.check("final drain")
			if h.e.Steps() != uint64(len(h.engLog)) {
				t.Fatalf("Steps = %d, log has %d firings", h.e.Steps(), len(h.engLog))
			}
		})
	}
}

// TestWheelBoundaryInstants pins exact firing behaviour at the cascade
// edges: events one tick either side of every level boundary, plus ties on
// the boundary itself, must fire in exact time-then-FIFO order.
func TestWheelBoundaryInstants(t *testing.T) {
	e := NewEngine()
	var want []Time
	var got []Time
	add := func(at Time) {
		want = append(want, at)
		e.Schedule(at, "b", Func(func() { got = append(got, e.Now()) }))
	}
	for lvl := uint(1); lvl <= 9; lvl++ {
		edge := Time(1) << (6 * lvl)
		add(edge - 1)
		add(edge)
		add(edge) // tie on the boundary
		add(edge + 1)
	}
	e.RunAll()
	if len(got) != len(want) {
		t.Fatalf("fired %d/%d boundary events", len(got), len(want))
	}
	for i, at := range want {
		if got[i] != at {
			t.Fatalf("firing %d at %v, want %v (order: %v)", i, got[i], at, got)
		}
	}
}

// TestWheelFarFutureCascade schedules an event many levels up, with nearer
// traffic draining first, and checks the deep cascade delivers it at the
// exact nanosecond.
func TestWheelFarFutureCascade(t *testing.T) {
	e := NewEngine()
	const far = Time(1)<<50 + 12345
	firedAt := Time(-1)
	e.Schedule(far, "far", Func(func() { firedAt = e.Now() }))
	for i := Time(0); i < 100; i++ {
		e.Schedule(i*7919, "near", Func(func() {}))
	}
	e.RunAll()
	if firedAt != far {
		t.Fatalf("far event fired at %v, want %v", firedAt, far)
	}
	if e.Steps() != 101 {
		t.Fatalf("Steps = %d, want 101", e.Steps())
	}
}
