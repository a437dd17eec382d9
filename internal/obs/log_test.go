package obs

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"urllcsim/internal/core"
	"urllcsim/internal/sim"
)

// TestSpanSize pins the span record at 48 bytes: the one-byte Dir, Layer
// and Source share one word, so a traced run stores 8 bytes less per span.
func TestSpanSize(t *testing.T) {
	if got := unsafe.Sizeof(Span{}); got != 48 {
		t.Fatalf("Span is %d bytes, want 48", got)
	}
}

// TestLogBlockSizes: blocks double from the first size up to the cap.
func TestLogBlockSizes(t *testing.T) {
	want := []int{21, 42, 85, 170, 341, 682, 682, 682}
	for i, w := range want {
		if got := logBlockLen[Span](i); got != w {
			t.Errorf("span block %d holds %d records, want %d", i, got, w)
		}
	}
}

// TestLogOrderAndViews: records come back in append order across block
// boundaries, Blocks partitions All, and a copied log is a view of the
// records held when it was taken, like a slice header.
func TestLogOrderAndViews(t *testing.T) {
	var l Log[int]
	n := 3*logBlockLen[int](5) + 5
	var view Log[int]
	for i := 0; i < n; i++ {
		l.Append(i)
		if i == 99 {
			view = l
		}
	}
	got := slices.Collect(l.All())
	if len(got) != n || l.Len() != n {
		t.Fatalf("held %d (Len %d) records, want %d", len(got), l.Len(), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("record %d = %d", i, v)
		}
	}
	var flat []int
	for b := range l.Blocks() {
		flat = append(flat, b...)
	}
	if !slices.Equal(flat, got) {
		t.Fatal("Blocks does not partition All")
	}
	if v := slices.Collect(view.All()); len(v) != 100 || v[99] != 99 {
		t.Fatalf("view taken at 100 records holds %d", len(v))
	}
	for v := range l.All() {
		if v == 7 {
			break // early exit must not panic
		}
	}
}

// TestLogResetReuses: a reset log refills its kept blocks without
// allocating and hands every record held to the poison hook once.
func TestLogResetReuses(t *testing.T) {
	var l Log[Span]
	fill := func() {
		for i := 0; i < 1000; i++ {
			l.Append(Span{Packet: i})
		}
	}
	fill()
	poisoned := 0
	l.reset(func(b []Span) { poisoned += len(b) })
	if poisoned != 1000 || l.Len() != 0 {
		t.Fatalf("reset poisoned %d records and left %d, want 1000 and 0", poisoned, l.Len())
	}
	if allocs := testing.AllocsPerRun(10, func() {
		fill()
		l.reset(func([]Span) {})
	}); allocs != 0 {
		t.Fatalf("refilling a reset log allocated %.1f times", allocs)
	}
}

// TestSpanLogAllocs bounds what a fresh recorder allocates to retain n
// spans: the records themselves, at most one block of slack and the block
// index. A contiguous slice grown by append copies every record several
// times on the way up and fails this bound by megabytes.
func TestSpanLogAllocs(t *testing.T) {
	const n = 100_000
	r := NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r.PacketSpan(i, DirUL, LayerMAC, "tx", core.Protocol, sim.Time(i), sim.Microsecond)
	}
	runtime.ReadMemStats(&after)
	blocks := 0
	for range r.Spans().Blocks() {
		blocks++
	}
	// The block index doubles as it grows: its allocations sum to less than
	// twice its final capacity, itself at most twice the block count.
	index := 4 * blocks * int(unsafe.Sizeof([]Span(nil)))
	bound := n*int(unsafe.Sizeof(Span{})) + logMaxBlockBytes + index
	if got := int(after.TotalAlloc - before.TotalAlloc); got > bound {
		t.Fatalf("retaining %d spans allocated %d B, want ≤ %d (records + one block + index)", n, got, bound)
	}
	if got := r.Spans().Len(); got != n {
		t.Fatalf("retained %d spans, want %d", got, n)
	}
}
