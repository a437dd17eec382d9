package node

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"urllcsim/internal/sim"
)

// delivered maps each resolved packet's id to its verdict.
func delivered(s *System) map[int]bool {
	m := map[int]bool{}
	for _, r := range s.Results() {
		m[r.ID] = r.Delivered
	}
	return m
}

// stamp writes byte i as byte i%8, little-endian, of SplitMix64(key +
// i&^7), whatever the size's remainder mod 8: the reference here computes
// every byte alone.
func TestStampBytes(t *testing.T) {
	cfg := testbedConfig(t, false, 3)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pk := range []struct{ id, ue int }{{0, 0}, {1, 0}, {7, 3}, {1 << 40, 499}} {
		key := sim.SplitMix64(uint64(pk.id)) ^ uint64(pk.ue)
		for size := 0; size <= 41; size++ {
			got := s.stamp(pk.id, pk.ue, size)
			if len(got) != size {
				t.Fatalf("stamp(%d, %d, %d) has %d bytes", pk.id, pk.ue, size, len(got))
			}
			for i, c := range got {
				if want := byte(sim.SplitMix64(key+uint64(i&^7)) >> (8 * (i % 8))); c != want {
					t.Fatalf("stamp(%d, %d, %d)[%d] = %#x, want %#x", pk.id, pk.ue, size, i, c, want)
				}
			}
		}
	}
}

// A UL transport block credited to another packet of the same size and UE
// fails the delivery check at the UPF: each packet's bytes are its own
// stamp, so the decoded bytes of packet 0 are not packet 1's. Packets 0 and
// 1 swap their received blocks and are both lost; packet 2 decodes its own
// block and is delivered.
func TestULDeliveryChecksOwnBytes(t *testing.T) {
	cfg := testbedConfig(t, false, 31)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := s.sch.ConfiguredGrant(0, 0)
	if !ok {
		t.Fatal("no UL slot")
	}
	ps := make([]*ulPacket, 3)
	for i := range ps {
		p := &ulPacket{s: s, id: i, size: cfg.PayloadBytes, cgUnit: -1}
		s.ulTransmitAt(p, g.SlotStart, 0)
		if p.lost || p.rx == nil {
			t.Fatalf("packet %d's block was lost on air", i)
		}
		ps[i] = p
	}
	s.nextID = len(ps)
	ps[0].rx, ps[1].rx = ps[1].rx, ps[0].rx
	// Decode in transmission order, so PDCP sees its COUNTs in order.
	for _, p := range []*ulPacket{ps[1], ps[0], ps[2]} {
		s.ulDeliver(p)
	}
	got := delivered(s)
	for id, want := range []bool{false, false, true} {
		if v, ok := got[id]; !ok || v != want {
			t.Errorf("packet %d: resolved=%v delivered=%v, want delivered=%v", id, ok, v, want)
		}
	}
}

// A DL block whose SDUs are credited to each other's packets, two of the
// same size and UE, loses both at the UE; the third SDU of the block,
// credited to its own packet, is delivered.
func TestDLDeliveryChecksOwnBytes(t *testing.T) {
	cfg := testbedConfig(t, false, 32)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 3)
	for i := range ids {
		ids[i] = s.OfferDL(0, cfg.PayloadBytes)
	}
	for s.gnbRLC.QueueLen() < 3 {
		if !s.Eng.Step() || s.Eng.Now() > sim.Time(cfg.Grid.Period()) {
			t.Fatalf("%d of 3 packets queued by %v", s.gnbRLC.QueueLen(), s.Eng.Now())
		}
	}
	tb := s.newTB(s.Eng.Now())
	for _, q := range s.gnbRLC.DequeueIDs(ids) {
		tb.ids = append(tb.ids, q.ID)
	}
	s.transmitDL(tb)
	if tb.lost || len(tb.segs) != 3 {
		t.Fatalf("block lost=%v with %d SDUs, want 3 on air", tb.lost, len(tb.segs))
	}
	swapped, own := []int{tb.ids[0], tb.ids[1]}, tb.ids[2]
	tb.ids[0], tb.ids[1] = tb.ids[1], tb.ids[0]
	s.Eng.Run(s.Eng.Now().Add(cfg.Grid.Period()))

	got := delivered(s)
	for _, id := range swapped {
		if v, ok := got[id]; !ok || v {
			t.Errorf("packet %d, credited another packet's SDU: resolved=%v delivered=%v, want lost", id, ok, v)
		}
	}
	if v, ok := got[own]; !ok || !v {
		t.Errorf("packet %d, credited its own SDU: resolved=%v delivered=%v, want delivered", own, ok, v)
	}
}

// chunkWatch counts the context chunks one direction carves, and how many
// of them the collector has freed, through a finalizer on each chunk.
type chunkWatch struct {
	last   unsafe.Pointer
	carved int
	freed  atomic.Int64
}

// watch registers the chunk behind chunk when get has just carved it: its
// first context is taken, so the slice starts at the second.
func watch[T any](w *chunkWatch, chunk []T) {
	if cap(chunk) != ctxChunk-1 {
		return
	}
	next := unsafe.Pointer(unsafe.SliceData(chunk))
	if next == w.last {
		return
	}
	w.last = next
	w.carved++
	var zero T
	first := (*T)(unsafe.Add(next, -int(unsafe.Sizeof(zero))))
	runtime.SetFinalizer(first, func(*T) { w.freed.Add(1) })
}

// arrivalCount forwards the engine's arrivals to the System and counts them
// by direction.
type arrivalCount struct {
	s      *System
	ul, dl int
}

func (c *arrivalCount) Arrive(a sim.Arrival) {
	if a.Kind == arriveUL {
		c.ul++
	} else {
		c.dl++
	}
	c.s.Arrive(a)
}

// A run carves context chunks for its packets in flight, not for every
// packet offered: each direction carves ⌈peak in flight / ctxChunk⌉ chunks.
// A drained System keeps at most one chunk per direction reachable: no
// event node, lane record, SR pairing, map or free list holds a finished
// packet, so every chunk but the one being carved is garbage. The run opens
// with a burst, so the engine's node pool, the SR pairing and the context
// free lists grow past what the sparse traffic after it reuses: a stale
// reference in any of them would keep one of the burst's chunks alive.
func TestDrainedContextChunkAllocs(t *testing.T) {
	cfg := testbedConfig(t, false, 5)
	period := cfg.Grid.Period()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n, burst = 200, 48
	for i := 0; i < n; i++ {
		at := sim.Time(int64(max(i-burst, 0)) * int64(period))
		s.OfferUL(at, cfg.PayloadBytes)
		s.OfferDL(at.Add(period/2), cfg.PayloadBytes)
	}
	arrived := &arrivalCount{s: s}
	s.Eng.HandleArrivals(arrived, arrivalName)
	var ul, dl chunkWatch
	var ulDone, dlDone, ulPeak, dlPeak int
	for s.Eng.Step() && len(s.Results()) < 2*n {
		watch(&ul, s.ulPool.chunk)
		watch(&dl, s.dlPool.chunk)
		for _, r := range s.Results()[ulDone+dlDone:] {
			if r.Uplink {
				ulDone++
			} else {
				dlDone++
			}
		}
		ulPeak = max(ulPeak, arrived.ul-ulDone)
		dlPeak = max(dlPeak, arrived.dl-dlDone)
	}
	if len(s.Results()) != 2*n {
		t.Fatalf("%d of %d packets resolved", len(s.Results()), 2*n)
	}
	chunks := func(peak int) int { return (peak + ctxChunk - 1) / ctxChunk }
	if ulPeak < burst || ul.carved != chunks(ulPeak) || dl.carved != chunks(dlPeak) {
		t.Fatalf("carved %d UL and %d DL chunks for %d and %d packets in flight at peak, want %d and %d",
			ul.carved, dl.carved, ulPeak, dlPeak, chunks(ulPeak), chunks(dlPeak))
	}
	t.Logf("carved %d UL and %d DL chunks for %d and %d packets in flight at peak (%d each offered)",
		ul.carved, dl.carved, ulPeak, dlPeak, n)
	retained := func() (int, int) {
		return ul.carved - int(ul.freed.Load()), dl.carved - int(dl.freed.Load())
	}
	for try := 0; try < 500; try++ {
		if u, d := retained(); u <= 1 && d <= 1 {
			break
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if u, d := retained(); u > 1 || d > 1 {
		t.Errorf("a drained System keeps %d UL and %d DL context chunks reachable, want ≤ 1 each", u, d)
	}
	runtime.KeepAlive(s)
}
