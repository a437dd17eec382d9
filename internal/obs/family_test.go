package obs

import (
	"reflect"
	"testing"

	"urllcsim/internal/metrics"
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
	CounterFam[PktEvent](c, "evt").At(PktEvent{UE: 2, Dir: DirDL, Event: FateLost}).Add(1)
	a.Merge(c)
	if got := CounterFam[PktEvent](a, "evt").At(PktEvent{UE: 2, Dir: DirDL, Event: FateLost}).Value(); got != 1 {
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

// TestFamilyFirstTouchAllocs: first touch of fresh keys allocates once per
// chunk of rows, plus the registry, the family and the growth of its key
// index and chunk list, never once per key as per-key instruments do. For
// 500 keys that is measured 32 allocations for counters and gauges and 56
// for histograms (25 chunks); per-key rows would make it over 500.
func TestFamilyFirstTouchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates too; the pin runs without -race (make allocs)")
	}
	const keys = 500
	for kind, touch := range map[FamilyKind]func(int) float64{
		FamilyCounter: firstTouchAllocs[Counter],
		FamilyGauge:   firstTouchAllocs[Gauge],
		FamilyHist:    firstTouchAllocs[metrics.LogHistogram],
	} {
		if got := touch(keys); got > keys/8 {
			t.Errorf("%s family: %v allocs for %d fresh keys, want ≤ %d", kind, got, keys, keys/8)
		}
	}
}

// firstTouchAllocs returns the allocations of touching keys 0…keys−1 of a
// fresh family of V rows in a fresh registry.
func firstTouchAllocs[V Row](keys int) float64 {
	return testing.AllocsPerRun(5, func() {
		f := family[UEKey, V](NewRegistry(), "f")
		for ue := range keys {
			f.At(UEKey{UE: ue})
		}
	})
}
