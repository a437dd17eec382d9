package obs

import (
	"fmt"
	"strconv"
	"unsafe"

	"urllcsim/internal/metrics"
)

// Labeled metric families add a dimension to the flat registry namespace:
// one family name ("pkt.by_ue") holds one instrument per label set (per UE,
// per direction, per event …), the shape Prometheus calls a metric family.
// Families keep the registry's two contracts intact:
//
//   - Exact merge: counters add, gauges take the last value, histogram rows
//     merge their HDR buckets exactly. Rows keep first-touch order and a
//     merge appends unseen rows in the source's order, so merging shard
//     registries in a fixed shard order is bit-identical however the shards
//     were scheduled (the internal/sweep invariance contract).
//
//   - Disabled-path cost: the family handles (CounterFamH, GaugeFamH,
//     HistFamH) return after one pointer comparison on a nil recorder, like
//     every other Recorder method.
//
// The key type K is a small comparable struct (UEKey, UEDir, PktEvent) that
// renders itself as labels; using structs instead of formatted strings keeps
// the hot path free of allocation-per-record string building.

// Label is one name=value pair of a labeled sample.
type Label struct {
	Name, Value string
}

// LabelSet constrains family key types: usable as a map key, and able to
// render themselves as an ordered label list for exposition.
type LabelSet interface {
	comparable
	MetricLabels() []Label
}

// UEKey labels a sample with the UE it belongs to.
type UEKey struct {
	UE int
}

func (k UEKey) MetricLabels() []Label {
	return []Label{{"ue", strconv.Itoa(k.UE)}}
}

// UEDir labels a sample with UE and packet direction.
type UEDir struct {
	UE  int
	Dir Dir
}

func (k UEDir) MetricLabels() []Label {
	return []Label{{"ue", strconv.Itoa(k.UE)}, {"dir", k.Dir.String()}}
}

// PktEvent labels a packet-fate sample: UE, direction and the event.
type PktEvent struct {
	UE    int
	Dir   Dir
	Event Fate
}

func (k PktEvent) MetricLabels() []Label {
	return []Label{{"ue", strconv.Itoa(k.UE)}, {"dir", k.Dir.String()}, {"event", k.Event.String()}}
}

// Fate is the event of a packet-fate sample.
type Fate uint8

const (
	FateDelivered Fate = iota
	FateLost
	FateDeadlineMet
	FateDeadlineMiss
)

var fateNames = [...]string{
	FateDelivered: "delivered", FateLost: "lost",
	FateDeadlineMet: "deadline_met", FateDeadlineMiss: "deadline_miss",
}

// String returns the event's label value.
func (f Fate) String() string { return fateNames[f] }

// FamilyKind discriminates the three family flavours.
type FamilyKind uint8

const (
	FamilyCounter FamilyKind = iota
	FamilyGauge
	FamilyHist
)

func (k FamilyKind) String() string {
	switch k {
	case FamilyCounter:
		return "counter"
	case FamilyGauge:
		return "gauge"
	case FamilyHist:
		return "hist"
	default:
		return "family?"
	}
}

// FamilyRow is one label set's instrument, in the type-erased form exporters
// consume. Count is set for counter rows, Value for gauge rows, Hist for
// histogram rows (shared with the family — read-only).
type FamilyRow struct {
	Labels []Label
	Count  int64
	Value  float64
	Hist   *metrics.LogHistogram
}

// Family is the type-erased view of a labeled family, the form the registry
// stores and exporters iterate. The concrete type is LabeledFamily[K, V].
type Family interface {
	FamilyName() string
	FamilyKind() FamilyKind
	// Rows returns the family's rows in first-touch order.
	Rows() []FamilyRow
	// mergeFamily folds a same-name, same-key-type family into the
	// receiver; emptyLike creates a fresh same-typed family for merges into
	// registries that have not seen this family yet.
	mergeFamily(o Family)
	emptyLike() Family
	// resetFamily zeroes every row in place, keeping keys, order and row
	// storage — the family half of Registry.Reset. storageBytes measures
	// the rows' retained storage for the observer-tax footprint.
	resetFamily()
	storageBytes() int64
}

// Row is the instrument a family holds per key; its kind is the family's
// kind. Each is ready at its zero value, so a row needs no constructor.
type Row interface {
	Counter | Gauge | metrics.LogHistogram
}

// rowChunkBytes is about how many bytes of rows one chunk allocation holds.
const rowChunkBytes = 4096

// LabeledFamily is a set of instruments of one kind keyed by K: counters,
// gauges or histograms as V is Counter, Gauge or metrics.LogHistogram.
//
// Rows are stored by value in chunks of about rowChunkBytes, carved in
// first-touch order, so touching a new key allocates only when it opens a
// chunk. Row i is chunks[i/perChunk][i%perChunk] and never moves; index maps
// a key to its row number, and the row keeps its key for exposition and
// merges.
type LabeledFamily[K LabelSet, V Row] struct {
	name     string
	index    map[K]int32
	chunks   [][]famRow[K, V]
	perChunk int
}

// famRow is one row of a family.
type famRow[K LabelSet, V Row] struct {
	key K
	val V
}

func newFamily[K LabelSet, V Row](name string) *LabeledFamily[K, V] {
	per := rowChunkBytes / int(unsafe.Sizeof(famRow[K, V]{}))
	return &LabeledFamily[K, V]{name: name, index: map[K]int32{}, perChunk: max(per, 1)}
}

// At returns the instrument for key k, creating it at zero on first use.
func (f *LabeledFamily[K, V]) At(k K) *V {
	if i, ok := f.index[k]; ok {
		return &f.row(int(i)).val
	}
	i := len(f.index)
	if i%f.perChunk == 0 {
		f.chunks = append(f.chunks, make([]famRow[K, V], f.perChunk))
	}
	f.index[k] = int32(i)
	r := f.row(i)
	r.key = k
	return &r.val
}

// row returns row i, 0 ≤ i < len(f.index).
func (f *LabeledFamily[K, V]) row(i int) *famRow[K, V] {
	return &f.chunks[i/f.perChunk][i%f.perChunk]
}

func (f *LabeledFamily[K, V]) FamilyName() string { return f.name }

func (f *LabeledFamily[K, V]) FamilyKind() FamilyKind {
	switch any((*V)(nil)).(type) {
	case *Counter:
		return FamilyCounter
	case *Gauge:
		return FamilyGauge
	}
	return FamilyHist
}

func (f *LabeledFamily[K, V]) Rows() []FamilyRow {
	out := make([]FamilyRow, len(f.index))
	for i := range out {
		r := f.row(i)
		out[i].Labels = r.key.MetricLabels()
		switch v := any(&r.val).(type) {
		case *Counter:
			out[i].Count = v.v
		case *Gauge:
			out[i].Value = v.v
		case *metrics.LogHistogram:
			out[i].Hist = v
		}
	}
	return out
}

// mergeFamily folds o's rows into f in o's first-touch order: counters add,
// gauges take o's value, histograms merge their buckets exactly.
func (f *LabeledFamily[K, V]) mergeFamily(o Family) {
	of := mustSameFamily[*LabeledFamily[K, V]](f.name, o)
	for i := range len(of.index) {
		src := of.row(i)
		switch dst := any(f.At(src.key)).(type) {
		case *Counter:
			dst.Add(any(&src.val).(*Counter).v)
		case *Gauge:
			dst.Set(any(&src.val).(*Gauge).v)
		case *metrics.LogHistogram:
			dst.Merge(any(&src.val).(*metrics.LogHistogram))
		}
	}
}

func (f *LabeledFamily[K, V]) emptyLike() Family { return newFamily[K, V](f.name) }

func (f *LabeledFamily[K, V]) resetFamily() {
	for i := range len(f.index) {
		v := &f.row(i).val
		if h, ok := any(v).(*metrics.LogHistogram); ok {
			h.Reset() // keeps its pages
		} else {
			*v = *new(V)
		}
	}
}

// storageBytes counts 24 bytes per counter or gauge row, and a histogram
// row's bucket pages.
func (f *LabeledFamily[K, V]) storageBytes() int64 {
	if f.FamilyKind() != FamilyHist {
		return int64(len(f.index)) * 24
	}
	var b int64
	for i := range len(f.index) {
		b += any(&f.row(i).val).(*metrics.LogHistogram).StorageBytes()
	}
	return b
}

// mustSameFamily asserts two same-named families share a concrete type. A
// family name binds its kind AND key type; reusing a name with a different
// key is a programming error, caught loudly rather than merged wrongly.
func mustSameFamily[T Family](name string, o Family) T {
	of, ok := o.(T)
	if !ok {
		panic(fmt.Sprintf("obs: family %q redeclared with a different kind or key type (%T vs %T)", name, of, o))
	}
	return of
}

// Go has no generic methods, so the registry's get-or-create accessors for
// families are package-level functions taking the registry.

// CounterFam returns r's counter family of the given name and key type,
// creating it on first use.
func CounterFam[K LabelSet](r *Registry, name string) *LabeledFamily[K, Counter] {
	return family[K, Counter](r, name)
}

// GaugeFam returns r's gauge family of the given name and key type, creating
// it on first use.
func GaugeFam[K LabelSet](r *Registry, name string) *LabeledFamily[K, Gauge] {
	return family[K, Gauge](r, name)
}

// HistFam returns r's histogram family of the given name and key type,
// creating it on first use.
func HistFam[K LabelSet](r *Registry, name string) *LabeledFamily[K, metrics.LogHistogram] {
	return family[K, metrics.LogHistogram](r, name)
}

// family returns r's family of the given name, registering a new one on
// first use.
func family[K LabelSet, V Row](r *Registry, name string) *LabeledFamily[K, V] {
	if f, ok := r.fIndex[name]; ok {
		return mustSameFamily[*LabeledFamily[K, V]](name, f)
	}
	f := newFamily[K, V](name)
	r.fIndex[name] = f
	r.families = append(r.families, f)
	return f
}
