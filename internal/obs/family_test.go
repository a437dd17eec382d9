package obs

import (
	"reflect"
	"testing"

	"urllcsim/internal/sim"
)

// TestFamilyFirstTouchOrder: rows come back in the order their keys were
// first touched, not sorted — the property the merge contract builds on.
func TestFamilyFirstTouchOrder(t *testing.T) {
	reg := NewRegistry()
	f := CounterFam[UEKey](reg, "pkt.by_ue")
	f.At(UEKey{UE: 3}).Add(1)
	f.At(UEKey{UE: 0}).Add(1)
	f.At(UEKey{UE: 3}).Add(1) // revisit must not reorder
	f.At(UEKey{UE: 7}).Add(1)

	var ues []string
	for _, row := range f.Rows() {
		ues = append(ues, row.Labels[0].Value)
	}
	if want := []string{"3", "0", "7"}; !reflect.DeepEqual(ues, want) {
		t.Fatalf("row order %v, want first-touch order %v", ues, want)
	}
	if got := f.Rows()[0].Count; got != 2 {
		t.Fatalf("ue=3 count %d, want 2", got)
	}
}

// TestFamilyMergeExact: merging registries adds counters, last-writes gauges,
// merges histogram buckets exactly, and appends unseen rows in source order.
func TestFamilyMergeExact(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	CounterFam[UEDir](a, "pkt").At(UEDir{UE: 0, Dir: DirUL}).Add(5)
	CounterFam[UEDir](b, "pkt").At(UEDir{UE: 1, Dir: DirDL}).Add(7)
	CounterFam[UEDir](b, "pkt").At(UEDir{UE: 0, Dir: DirUL}).Add(3)
	GaugeFam[UEKey](a, "q").At(UEKey{UE: 0}).Set(2)
	GaugeFam[UEKey](b, "q").At(UEKey{UE: 0}).Set(9)
	HistFam[UEKey](a, "lat").At(UEKey{UE: 0}).AddDuration(100 * sim.Microsecond)
	HistFam[UEKey](b, "lat").At(UEKey{UE: 0}).AddDuration(200 * sim.Microsecond)

	a.Merge(b)

	pkt := CounterFam[UEDir](a, "pkt")
	if got := pkt.At(UEDir{UE: 0, Dir: DirUL}).Value(); got != 8 {
		t.Fatalf("merged counter = %d, want 5+3", got)
	}
	rows := pkt.Rows()
	if len(rows) != 2 || rows[1].Labels[0].Value != "1" {
		t.Fatalf("unseen row must append after existing rows: %+v", rows)
	}
	if got := GaugeFam[UEKey](a, "q").At(UEKey{UE: 0}).Value(); got != 9 {
		t.Fatalf("merged gauge = %v, want last value 9", got)
	}
	if got := HistFam[UEKey](a, "lat").At(UEKey{UE: 0}).N(); got != 2 {
		t.Fatalf("merged hist N = %d, want 2", got)
	}
	// A family only the source has must appear whole in the destination.
	c := NewRegistry()
	CounterFam[PktEvent](c, "evt").At(PktEvent{UE: 2, Dir: DirDL, Event: "lost"}).Add(1)
	a.Merge(c)
	if got := CounterFam[PktEvent](a, "evt").At(PktEvent{UE: 2, Dir: DirDL, Event: "lost"}).Value(); got != 1 {
		t.Fatalf("source-only family not carried over: %d", got)
	}
}

// TestFamilyMergeAssociative: ((a+b)+(c+d)) equals (a+b+c+d) row for row —
// the property that makes sharded sweeps worker-count invariant as long as
// shards merge in a fixed order.
func TestFamilyMergeAssociative(t *testing.T) {
	mk := func(ue int, n int64) *Registry {
		r := NewRegistry()
		CounterFam[UEKey](r, "pkt.by_ue").At(UEKey{UE: ue}).Add(n)
		HistFam[UEKey](r, "lat.by_ue").At(UEKey{UE: ue}).AddDuration(sim.Duration(n) * sim.Microsecond)
		return r
	}
	shards := func() []*Registry {
		return []*Registry{mk(1, 10), mk(2, 20), mk(1, 30), mk(3, 40)}
	}

	flat := NewRegistry()
	for _, s := range shards() {
		flat.Merge(s)
	}
	s2 := shards()
	left, right := NewRegistry(), NewRegistry()
	left.Merge(s2[0])
	left.Merge(s2[1])
	right.Merge(s2[2])
	right.Merge(s2[3])
	tree := NewRegistry()
	tree.Merge(left)
	tree.Merge(right)

	if flat.Summary() != tree.Summary() {
		t.Fatalf("merge not associative:\nflat:\n%s\ntree:\n%s", flat.Summary(), tree.Summary())
	}
}

// TestFamilyNameCollisionPanics: reusing a family name with a different kind
// or key type is a programming error surfaced loudly.
func TestFamilyNameCollisionPanics(t *testing.T) {
	reg := NewRegistry()
	CounterFam[UEKey](reg, "pkt.by_ue").At(UEKey{UE: 0}).Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on family name reuse with a different key type")
		}
	}()
	GaugeFam[UEDir](reg, "pkt.by_ue")
}
