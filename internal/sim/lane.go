package sim

import (
	"fmt"
	"sync"
)

// Arrival is one entry of the engine's arrival lane: what a packet source
// hands the model when the arrival fires, stored as a compact record
// instead of as a scheduled callback.
type Arrival struct {
	Kind   uint8 // picks the event name (HandleArrivals) and the model's path
	ID, UE int
	Size   int // the packet's application bytes
}

// laneEntry is one queued arrival. key is the engine's seq at the push
// shifted left by kindBits, with the arrival's kind in the low bits: keys
// order exactly as seqs do, so a lane entry and a wheel node order exactly
// as two wheel nodes would, and the record stays at 40 bytes.
type laneEntry struct {
	when         Time
	key          uint64
	id, ue, size int
}

const kindBits = 8

func (x *laneEntry) seq() uint64 { return x.key >> kindBits }

// before orders entries by (when, seq): the engine's firing order.
func (x *laneEntry) before(y *laneEntry) bool {
	return x.when < y.when || x.when == y.when && x.key < y.key
}

// laneBlockSize fills one 8 KiB allocation with a block (204 entries of
// 40 B plus the link).
const laneBlockSize = 204

// laneBlock is a fixed-size chunk of the lane's FIFO. Blocks leave the lane
// as they drain, so the lane retains memory only for the arrivals still
// queued; a growing slice would allocate several times its final size on
// the way up and keep the largest. The link comes first, so the collector
// scans one word of a block, not all of it.
type laneBlock struct {
	next    *laneBlock
	entries [laneBlockSize]laneEntry
}

// laneFreeMax caps the drained blocks the process keeps for reuse: 512 KiB,
// room for 13,056 queued arrivals.
const laneFreeMax = 64

// laneFree is a process-wide stack of drained lane blocks. A drained block
// goes here instead of to the collector, and the next push that needs a
// block takes it back, so the engines a sweep, a replica loop or a benchmark
// builds one after another offer their traffic into blocks that are already
// in memory. A fresh block is a page the Go runtime may have returned to the
// OS, and faulting it back in can cost more than the offers that fill it.
// Engines of a parallel sweep share the stack; the lock is taken once per
// block of 204 arrivals.
var laneFree struct {
	sync.Mutex
	top *laneBlock
	n   int
}

// newLaneBlock returns a block from the free stack, or a fresh one. A reused
// block's entries are stale; the lane writes each before it reads it.
func newLaneBlock() *laneBlock {
	laneFree.Lock()
	b := laneFree.top
	if b != nil {
		laneFree.top, b.next = b.next, nil
		laneFree.n--
	}
	laneFree.Unlock()
	if b == nil {
		b = &laneBlock{}
	}
	return b
}

// freeLaneBlock pushes a drained block onto the free stack, or leaves it to
// the collector when the stack is full.
func freeLaneBlock(b *laneBlock) {
	laneFree.Lock()
	if laneFree.n < laneFreeMax {
		b.next, laneFree.top = laneFree.top, b
		laneFree.n++
	}
	laneFree.Unlock()
}

// lane is the engine's arrival queue, beside the timing wheel. Offered
// traffic waits here as compact records rather than as wheel nodes, so the engine's node pool only ever holds the events in
// flight. The block storage, given back as it drains, holds only pushes made
// in time order; an out-of-order push goes to the late heap, a plain slice
// freed only when it is empty, so sources should push in time order (or
// nearly so) to keep the lane's memory bounded by its blocks.
type lane struct {
	// Pushes not earlier than the last queued one append to a FIFO of
	// blocks: the common, in-order case. head[hi:] … tail[:ti] are queued.
	head, tail *laneBlock
	hi, ti     int

	// late holds pushes earlier than the FIFO's tail, as a binary min-heap
	// on (when, seq). It stays small when traffic is offered nearly in
	// order, and holds mid-run arrivals pushed behind up-front ones.
	late []laneEntry

	count int
	names []string // event name per arrival kind
	h     ArrivalHandler
}

// ArrivalHandler receives the engine's arrivals as they fire.
type ArrivalHandler interface {
	Arrive(Arrival)
}

// HandleArrivals installs the arrival lane's handler and the event name of
// each arrival kind (names[a.Kind]), the name the Sink sees when the
// arrival fires.
func (e *Engine) HandleArrivals(h ArrivalHandler, names []string) {
	e.arrivals.h, e.arrivals.names = h, names
}

// Arrive queues arrival a at absolute time at in the arrival lane. Run and
// Step fire whichever comes first, the lane's earliest arrival or the
// wheel's front node, by exact (when, seq), so the firing order is the one
// the same arrivals would get through Schedule, whatever order they are
// pushed in. An arrival counts as a push, a pop and a step, and is included
// in Pending, exactly like a wheel event. Like Schedule, arriving in the
// past panics.
func (e *Engine) Arrive(at Time, a Arrival) {
	l := &e.arrivals
	if int(a.Kind) >= len(l.names) {
		panic(fmt.Sprintf("sim: arrival kind %d has no handler name", a.Kind))
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: arrive %q at %v before now %v", l.names[a.Kind], at, e.now))
	}
	ent := laneEntry{when: at, key: e.seq<<kindBits | uint64(a.Kind), id: a.ID, ue: a.UE, size: a.Size}
	e.seq++
	e.pushes++
	l.count++
	if l.tail != nil && at < l.tail.entries[l.ti-1].when {
		l.pushLate(ent)
		return
	}
	if l.tail == nil || l.ti == laneBlockSize {
		b := newLaneBlock()
		if l.tail == nil {
			l.head, l.hi = b, 0
		} else {
			l.tail.next = b
		}
		l.tail, l.ti = b, 0
	}
	l.tail.entries[l.ti] = ent
	l.ti++
}

// front returns the lane's earliest entry, or nil when it is empty.
func (l *lane) front() *laneEntry {
	var f *laneEntry
	if l.head != nil {
		f = &l.head.entries[l.hi]
	}
	if len(l.late) > 0 && (f == nil || l.late[0].before(f)) {
		f = &l.late[0]
	}
	return f
}

// pop removes and returns the lane's earliest entry. Call only when front
// is non-nil.
func (l *lane) pop() laneEntry {
	l.count--
	if len(l.late) > 0 && (l.head == nil || l.late[0].before(&l.head.entries[l.hi])) {
		return l.popLate()
	}
	b := l.head
	ent := b.entries[l.hi]
	l.hi++
	switch {
	case b == l.tail && l.hi == l.ti:
		l.head, l.tail, l.hi, l.ti = nil, nil, 0, 0
		freeLaneBlock(b)
	case l.hi == laneBlockSize:
		l.head, l.hi = b.next, 0
		freeLaneBlock(b)
	}
	return ent
}

func (l *lane) pushLate(ent laneEntry) {
	h := append(l.late, ent)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	l.late = h
}

func (l *lane) popLate() laneEntry {
	h := l.late
	ent := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	if n == 0 {
		h = nil // release the heap's backing array once it drains
	}
	l.late = h
	return ent
}
