package obs

import (
	"fmt"
	"strconv"

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

// PktEvent labels a packet-fate sample: UE, direction and the event name
// (delivered, lost, deadline_met, deadline_miss).
type PktEvent struct {
	UE    int
	Dir   Dir
	Event string
}

func (k PktEvent) MetricLabels() []Label {
	return []Label{{"ue", strconv.Itoa(k.UE)}, {"dir", k.Dir.String()}, {"event", k.Event}}
}

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
// stores and exporters iterate. The concrete types are the generic
// CounterFamily[K]/GaugeFamily[K]/HistFamily[K].
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

// CounterFamily is a set of counters keyed by K.
type CounterFamily[K LabelSet] struct {
	name  string
	vals  map[K]*Counter
	order []K
}

func newCounterFamily[K LabelSet](name string) *CounterFamily[K] {
	return &CounterFamily[K]{name: name, vals: map[K]*Counter{}}
}

// At returns the counter for key k, creating it at zero on first use.
func (f *CounterFamily[K]) At(k K) *Counter {
	if c, ok := f.vals[k]; ok {
		return c
	}
	c := &Counter{Name: f.name}
	f.vals[k] = c
	f.order = append(f.order, k)
	return c
}

func (f *CounterFamily[K]) FamilyName() string     { return f.name }
func (f *CounterFamily[K]) FamilyKind() FamilyKind { return FamilyCounter }

func (f *CounterFamily[K]) Rows() []FamilyRow {
	out := make([]FamilyRow, 0, len(f.order))
	for _, k := range f.order {
		out = append(out, FamilyRow{Labels: k.MetricLabels(), Count: f.vals[k].Value()})
	}
	return out
}

func (f *CounterFamily[K]) mergeFamily(o Family) {
	of := mustSameFamily[*CounterFamily[K]](f.name, o)
	for _, k := range of.order {
		f.At(k).Add(of.vals[k].Value())
	}
}

func (f *CounterFamily[K]) emptyLike() Family { return newCounterFamily[K](f.name) }

func (f *CounterFamily[K]) resetFamily() {
	for _, c := range f.vals {
		c.v = 0
	}
}

func (f *CounterFamily[K]) storageBytes() int64 { return int64(len(f.order)) * 24 }

// GaugeFamily is a set of last-value-wins gauges keyed by K.
type GaugeFamily[K LabelSet] struct {
	name  string
	vals  map[K]*Gauge
	order []K
}

func newGaugeFamily[K LabelSet](name string) *GaugeFamily[K] {
	return &GaugeFamily[K]{name: name, vals: map[K]*Gauge{}}
}

// At returns the gauge for key k, creating it on first use.
func (f *GaugeFamily[K]) At(k K) *Gauge {
	if g, ok := f.vals[k]; ok {
		return g
	}
	g := &Gauge{Name: f.name}
	f.vals[k] = g
	f.order = append(f.order, k)
	return g
}

func (f *GaugeFamily[K]) FamilyName() string     { return f.name }
func (f *GaugeFamily[K]) FamilyKind() FamilyKind { return FamilyGauge }

func (f *GaugeFamily[K]) Rows() []FamilyRow {
	out := make([]FamilyRow, 0, len(f.order))
	for _, k := range f.order {
		out = append(out, FamilyRow{Labels: k.MetricLabels(), Value: f.vals[k].Value()})
	}
	return out
}

func (f *GaugeFamily[K]) mergeFamily(o Family) {
	of := mustSameFamily[*GaugeFamily[K]](f.name, o)
	for _, k := range of.order {
		f.At(k).Set(of.vals[k].Value())
	}
}

func (f *GaugeFamily[K]) emptyLike() Family { return newGaugeFamily[K](f.name) }

func (f *GaugeFamily[K]) resetFamily() {
	for _, g := range f.vals {
		g.v = 0
	}
}

func (f *GaugeFamily[K]) storageBytes() int64 { return int64(len(f.order)) * 24 }

// HistFamily is a set of HDR-style log histograms keyed by K — per-label
// latency distributions resolving the reliability tail in O(buckets) memory,
// with the LogHistogram's exact bucket merge.
type HistFamily[K LabelSet] struct {
	name  string
	vals  map[K]*metrics.LogHistogram
	order []K
}

func newHistFamily[K LabelSet](name string) *HistFamily[K] {
	return &HistFamily[K]{name: name, vals: map[K]*metrics.LogHistogram{}}
}

// At returns the histogram for key k, creating it on first use.
func (f *HistFamily[K]) At(k K) *metrics.LogHistogram {
	if h, ok := f.vals[k]; ok {
		return h
	}
	h := metrics.NewLogHistogram()
	f.vals[k] = h
	f.order = append(f.order, k)
	return h
}

func (f *HistFamily[K]) FamilyName() string     { return f.name }
func (f *HistFamily[K]) FamilyKind() FamilyKind { return FamilyHist }

func (f *HistFamily[K]) Rows() []FamilyRow {
	out := make([]FamilyRow, 0, len(f.order))
	for _, k := range f.order {
		out = append(out, FamilyRow{Labels: k.MetricLabels(), Hist: f.vals[k]})
	}
	return out
}

func (f *HistFamily[K]) mergeFamily(o Family) {
	of := mustSameFamily[*HistFamily[K]](f.name, o)
	for _, k := range of.order {
		f.At(k).Merge(of.vals[k])
	}
}

func (f *HistFamily[K]) emptyLike() Family { return newHistFamily[K](f.name) }

func (f *HistFamily[K]) resetFamily() {
	for _, h := range f.vals {
		h.Reset()
	}
}

func (f *HistFamily[K]) storageBytes() int64 {
	var b int64
	for _, h := range f.vals {
		b += h.StorageBytes()
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
func CounterFam[K LabelSet](r *Registry, name string) *CounterFamily[K] {
	return family(r, name, newCounterFamily[K])
}

// GaugeFam returns r's gauge family of the given name and key type, creating
// it on first use.
func GaugeFam[K LabelSet](r *Registry, name string) *GaugeFamily[K] {
	return family(r, name, newGaugeFamily[K])
}

// HistFam returns r's histogram family of the given name and key type,
// creating it on first use.
func HistFam[K LabelSet](r *Registry, name string) *HistFamily[K] {
	return family(r, name, newHistFamily[K])
}

// family returns r's family of the given name, registering mk(name) on
// first use.
func family[F Family](r *Registry, name string, mk func(string) F) F {
	if f, ok := r.fIndex[name]; ok {
		return mustSameFamily[F](name, f)
	}
	f := mk(name)
	r.fIndex[name] = f
	r.families = append(r.families, f)
	return f
}
