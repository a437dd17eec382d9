package sim

import "math/bits"

// The event queue is a hierarchical timing wheel: 11 levels of 64 slots,
// with a level-0 tick of exactly one nanosecond. Level l spans 64^(l+1) ns,
// so the 11 levels together cover the full positive range of Time (63 bits).
//
// Every queued event lives in exactly one bucket, chosen from the XOR of its
// firing time with the wheel's cursor: the highest differing 6-bit group is
// the level, the event's own 6-bit group at that level is the slot. Because
// the level-0 tick is 1 ns, a level-0 bucket holds events of one *exact*
// instant — appending to the bucket tail therefore preserves scheduling
// order, which is what keeps same-instant FIFO (the seq tiebreak every
// determinism contract rests on) structural rather than comparison-based.
//
// Extraction never scans time: each level keeps a 64-bit occupancy bitmap,
// so "next non-empty bucket" is a TrailingZeros64 per level. When the next
// bucket is at level ≥ 1 its events are cascaded down one or more levels
// (re-inserted against the advanced cursor); slot-aligned workloads cluster
// heavily, so in steady state insert and extract are O(1) with no
// per-element comparisons and no allocation (nodes come from the engine's
// pool, buckets are intrusive lists).
const (
	slotBits  = 6
	numSlots  = 1 << slotBits // 64 slots per level
	slotMask  = numSlots - 1
	numLevels = 11 // 6 bits × 11 levels = 66 ≥ the 63 bits of a positive Time
)

// node is the engine-owned storage for one scheduled callback. Nodes are
// pooled: a fired node returns to the engine's freelist, and the next
// scheduling re-arms it with a fresh seq.
type node struct {
	when Time
	name string
	fn   func()
	seq  uint64 // scheduling order: the (when, seq) tie-break against the arrival lane
	next *node  // bucket successor while queued; the freelist link while pooled
}

// list is one wheel bucket: an intrusive singly linked FIFO, appended at the
// tail and popped at the head.
type list struct {
	head, tail *node
}

func (l *list) append(n *node) {
	n.next = nil
	if l.tail != nil {
		l.tail.next = n
	} else {
		l.head = n
	}
	l.tail = n
}

// pop removes and returns the head of a non-empty bucket.
func (l *list) pop() *node {
	n := l.head
	l.head = n.next
	if l.head == nil {
		l.tail = nil
	}
	return n
}

type wheelLevel struct {
	occupied uint64 // bit s set ⟺ slots[s] is non-empty
	slots    [numSlots]list
}

type wheel struct {
	// elapsed is the wheel's processed-time cursor. It trails the engine
	// clock (elapsed ≤ now at all times — Run's horizon clamp depends on
	// cascades never overshooting the limit) and advances only to bucket
	// deadlines, so every queued event satisfies when ≥ elapsed and the
	// level invariant: all of level l shares elapsed's 64^(l+1)-block, in a
	// 64^l-block not before elapsed's. Hence no slot ever sits "behind" the
	// cursor and TrailingZeros64 alone finds the next bucket.
	elapsed uint64
	count   int // queued events
	levels  [numLevels]wheelLevel
}

// levelFor places a future instant relative to the cursor: the highest
// 6-bit group in which they differ.
func levelFor(elapsed, when uint64) int {
	masked := elapsed ^ when
	if masked == 0 {
		return 0
	}
	return (63 - bits.LeadingZeros64(masked)) / slotBits
}

func (w *wheel) insert(n *node) {
	when := uint64(n.when)
	lvl := levelFor(w.elapsed, when)
	slot := int(when>>(uint(lvl)*slotBits)) & slotMask
	l := &w.levels[lvl]
	l.slots[slot].append(n)
	l.occupied |= 1 << uint(slot)
	w.count++
}

type peekStatus uint8

const (
	peekEmpty  peekStatus = iota // no events queued
	peekBeyond                   // earliest event lies past the limit
	peekFound                    // exact earliest instant returned
)

// noLimit disables the horizon bound in earliest.
const noLimit = ^uint64(0)

// earliest resolves the exact time of the earliest queued event, cascading
// higher-level buckets down as needed. The cursor never advances past limit:
// if the earliest bucket's deadline (a lower bound on its events' times)
// already exceeds limit, earliest reports peekBeyond without cascading, so a
// horizon-bounded Run leaves the wheel positioned no later than the horizon.
func (w *wheel) earliest(limit uint64) (uint64, peekStatus) {
	for {
		lvl := -1
		for l := 0; l < numLevels; l++ {
			if w.levels[l].occupied != 0 {
				lvl = l
				break
			}
		}
		if lvl < 0 {
			return 0, peekEmpty
		}
		// Lower levels always hold earlier events than higher ones (they
		// share the cursor's block at the higher level's granularity), so
		// the first occupied level's lowest slot is the global minimum.
		slot := bits.TrailingZeros64(w.levels[lvl].occupied)
		shift := uint(lvl) * slotBits
		slotSpan := uint64(1) << shift
		levelSpan := slotSpan << slotBits
		base := w.elapsed &^ (levelSpan - 1)
		deadline := base + uint64(slot)*slotSpan
		if deadline > limit {
			return deadline, peekBeyond
		}
		if lvl == 0 {
			// A level-0 slot is a single nanosecond: deadline is the exact
			// When shared by every event in the bucket.
			return deadline, peekFound
		}
		// Cascade: advance the cursor to the bucket's start and re-insert
		// its events, which now land one or more levels lower. Walking the
		// bucket head→tail keeps same-instant events in scheduling order.
		w.elapsed = deadline
		l := &w.levels[lvl]
		head := l.slots[slot].head
		l.slots[slot] = list{}
		l.occupied &^= 1 << uint(slot)
		for n := head; n != nil; {
			next := n.next
			w.count--
			w.insert(n)
			n = next
		}
	}
}

// front returns the head of the earliest level-0 bucket without removing
// it. Call only after earliest reported peekFound.
func (w *wheel) front() *node {
	l := &w.levels[0]
	return l.slots[bits.TrailingZeros64(l.occupied)].head
}

// popFront removes and returns the head of the earliest level-0 bucket.
// Call only after earliest reported peekFound.
func (w *wheel) popFront() *node {
	l := &w.levels[0]
	slot := bits.TrailingZeros64(l.occupied)
	b := &l.slots[slot]
	n := b.pop()
	if b.head == nil {
		l.occupied &^= 1 << uint(slot)
	}
	w.count--
	w.elapsed = uint64(n.when)
	return n
}
