package sim

import "fmt"

// EngineSink receives a structured notification for every fired event. It
// is the engine half of the observability layer (internal/obs): the
// self-profiler (prof.Profiler) implements it, and obs.TracerFunc adapts a
// plain func(Time, string) hook onto it.
type EngineSink interface {
	EngineEvent(t Time, name string)
}

// Handler is a scheduled event's callback. Model contexts (a packet, a
// transport block, the gNB ticker) implement it themselves, so scheduling
// one stores the context in the event node and allocates nothing.
type Handler interface {
	Fire()
}

// Func adapts a plain function to Handler. A func value is pointer-shaped,
// so the conversion allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Engine is the discrete-event simulation core. It is not safe for concurrent
// use: a simulation is a single logical thread of control, and all model code
// runs inside event callbacks.
//
// The event queue is a hierarchical timing wheel (see wheel.go) fed from a
// per-engine freelist of event nodes, so steady-state scheduling and firing
// allocate nothing and same-instant FIFO order is structural. Offered
// traffic waits beside it in the arrival lane (see lane.go) as compact
// records, merged with the wheel by exact (when, seq).
type Engine struct {
	now     Time
	seq     uint64
	steps   uint64
	pushes  uint64
	pops    uint64
	stopped bool

	free       *node  // recycled event nodes, linked through node.next
	poolAllocs uint64 // nodes ever allocated (freelist misses)

	// Sink, when non-nil, receives every fired event as a structured
	// notification (typically an *obs.Recorder).
	Sink EngineSink

	wheel wheel

	arrivals lane // the arrival lane (lane.go), fired in merge with the wheel
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events fired so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pushes returns the number of queue insertions: one per Schedule/After and
// one per Arrive.
func (e *Engine) Pushes() uint64 { return e.pushes }

// Pops returns the number of queue extractions. Every pop fires an event,
// so Pops always equals Steps, and Pushes − Pops is the queue length at any
// instant.
func (e *Engine) Pops() uint64 { return e.pops }

// Cancels returns 0: the engine has no cancellation. It remains because the
// benchmark and the v3 self-profile still read it.
func (e *Engine) Cancels() uint64 { return 0 }

// PoolAllocs returns the number of event nodes this engine ever allocated —
// the pool's capacity, grown in slabs of slabSize on freelist misses. Once a
// workload's high-water mark of in-flight events is reached this stops
// growing: steady-state scheduling allocates nothing.
func (e *Engine) PoolAllocs() uint64 { return e.poolAllocs }

// Pending returns the number of queued events, wheel and arrival lane
// together.
func (e *Engine) Pending() int { return e.wheel.count + e.arrivals.count }

// slabSize is the pool's growth quantum: a freelist miss allocates this many
// nodes in one contiguous block instead of one at a time, so cold-start
// scheduling (and any later growth of the in-flight high-water mark) pays one
// allocation per slabSize events and neighbouring nodes share cache lines.
// Offered traffic waits in the arrival lane, not in nodes, so the pool only
// holds events in flight: 6 at most on the single-UE testbed, 182 in a
// 500-UE dynamic-grant cell.
const slabSize = 64

// alloc takes a node from the freelist, refilling it from a fresh slab on a
// miss.
func (e *Engine) alloc() *node {
	n := e.free
	if n == nil {
		slab := make([]node, slabSize)
		for i := range slab {
			slab[i].next = e.free
			e.free = &slab[i]
		}
		e.poolAllocs += slabSize
		n = e.free
	}
	e.free = n.next
	n.next = nil
	return n
}

// recycle returns a fired node to the freelist. The handler and name are
// dropped so the pool retains no contexts.
func (e *Engine) recycle(n *node) {
	n.h = nil
	n.name = ""
	n.next = e.free
	e.free = n
}

// Schedule queues h to fire at absolute time when. Scheduling in the past is
// a programming error and panics: silently reordering time would corrupt
// every latency measurement downstream.
func (e *Engine) Schedule(when Time, name string, h Handler) {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule %q at %v before now %v", name, when, e.now))
	}
	n := e.alloc()
	n.when, n.name, n.h = when, name, h
	n.seq = e.seq
	e.seq++
	e.pushes++
	e.wheel.insert(n)
}

// After queues fn to run d after the current time.
func (e *Engine) After(d Duration, name string, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, name))
	}
	e.Schedule(e.now.Add(d), name, Func(fn))
}

// Stop makes Run return after the currently firing event completes.
func (e *Engine) Stop() { e.stopped = true }

// next resolves the earliest queued event, over the wheel and the arrival
// lane, by exact (when, seq). It reports whether the lane holds it. The
// wheel is never advanced past the lane's head, so firing an arrival keeps
// the wheel's cursor at or behind the clock. With the earliest event beyond
// limit it reports peekBeyond.
func (e *Engine) next(limit uint64) (t uint64, arrival bool, st peekStatus) {
	head := e.arrivals.front()
	if head == nil || uint64(head.when) > limit {
		t, st = e.wheel.earliest(limit)
		if head != nil && st == peekEmpty {
			st = peekBeyond
		}
		return t, false, st
	}
	t, st = e.wheel.earliest(uint64(head.when))
	if st == peekFound && (t < uint64(head.when) || e.wheel.front().seq < head.seq()) {
		return t, false, peekFound
	}
	return uint64(head.when), true, peekFound
}

// fire runs the event next resolved at time t: the lane's head when arrival
// is set, the wheel's front node otherwise.
func (e *Engine) fire(t Time, arrival bool) {
	if !arrival {
		e.fireNext(t)
		return
	}
	l := &e.arrivals
	ent := l.pop()
	e.now = t
	e.steps++
	e.pops++
	kind := uint8(ent.key)
	if e.Sink != nil {
		e.Sink.EngineEvent(e.now, l.names[kind])
	}
	l.h.Arrive(Arrival{Kind: kind, ID: ent.id, UE: ent.ue, Size: ent.size})
}

// fireNext extracts the wheel's earliest event and runs it at time t.
func (e *Engine) fireNext(t Time) {
	n := e.wheel.popFront()
	e.now = t
	e.steps++
	e.pops++
	name, h := n.name, n.h
	// Recycle before the callback: the common reschedule-from-a-callback
	// pattern then reuses this very node.
	e.recycle(n)
	if e.Sink != nil {
		e.Sink.EngineEvent(e.now, name)
	}
	h.Fire()
}

// Run fires events until the queue is empty, the horizon is passed, or Stop
// is called. It returns the time of the last fired event. Events scheduled
// exactly at the horizon still fire; later ones remain queued, with the
// clock advanced to the horizon. A horizon earlier than the current time is
// clamped: Run returns immediately with the clock untouched — the clock
// never moves backwards.
func (e *Engine) Run(horizon Time) Time {
	e.stopped = false
	limit := noLimit
	if horizon >= 0 {
		if horizon < e.now {
			return e.now
		}
		limit = uint64(horizon)
	}
	for !e.stopped {
		t, arrival, st := e.next(limit)
		switch st {
		case peekEmpty:
			return e.now
		case peekBeyond:
			// Advance the clock to the horizon so a subsequent Run or
			// Schedule sees a consistent notion of "now".
			e.now = horizon
			return e.now
		}
		e.fire(Time(t), arrival)
	}
	return e.now
}

// RunAll runs with no horizon.
func (e *Engine) RunAll() Time { return e.Run(Never) }

// Step fires exactly one event and reports whether an event fired.
func (e *Engine) Step() bool {
	t, arrival, st := e.next(noLimit)
	if st != peekFound {
		return false
	}
	e.fire(Time(t), arrival)
	return true
}
