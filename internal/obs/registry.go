package obs

import (
	"fmt"
	"strings"

	"urllcsim/internal/metrics"
	"urllcsim/internal/sim"
)

// Counter is a monotonically named event count (slots scheduled, HARQ
// retransmissions, CRC failures, …).
type Counter struct {
	Name string
	v    int64
}

// Add adds delta.
func (c *Counter) Add(delta int64) { c.v += delta }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a last-value-wins instantaneous measurement (RLC queue depth,
// in-flight HARQ processes, …).
type Gauge struct {
	Name string
	v    float64
}

// Set stores the current value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return g.v }

// Timing is a named latency series: a streaming Accumulator for the exact
// mean, std and worst case in the paper's µs unit, and an HDR-style
// LogHistogram holding the full distribution at ~0.1 % resolution in memory
// bounded by the value range, whatever the run length. Every percentile of
// a timing, p50 to p99.999 (the URLLC reliability tail), comes from the
// LogHistogram.
type Timing struct {
	Name string
	Acc  metrics.Accumulator
	HDR  metrics.LogHistogram
}

// Observe records one duration.
func (t *Timing) Observe(d sim.Duration) {
	t.Acc.AddDuration(d)
	t.HDR.AddDuration(d)
}

// Merge folds o's series into t: the accumulator via the exact parallel
// Welford combination and the HDR histogram via its exact bucket merge. o
// is left untouched.
func (t *Timing) Merge(o *Timing) {
	if o == nil {
		return
	}
	t.Acc.Merge(&o.Acc)
	t.HDR.Merge(&o.HDR)
}

// Snapshot is the value of every counter and gauge at one instant, in
// registration order. Counters or gauges registered after this snapshot was
// taken are absent from it (the slices are shorter) — consumers align by
// index against Registry.Counters()/Gauges().
type Snapshot struct {
	T        sim.Time
	Counters []int64
	Gauges   []float64
}

// Registry is an ordered collection of named counters, gauges and timings
// with slot-aligned snapshots. Get-or-create accessors keep call sites to a
// single line; registration order is deterministic because the simulation
// is deterministic.
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	timings  []*Timing
	families []Family
	cIndex   map[string]*Counter
	gIndex   map[string]*Gauge
	tIndex   map[string]*Timing
	fIndex   map[string]Family
	snaps    []Snapshot

	// snapC/snapG are the snapshot arenas: per-snapshot value slices are
	// carved out of these chunks instead of allocated individually, so the
	// once-per-slot Snapshot call settles at zero allocations once a chunk
	// covers the run (chunks double; Reset recycles the largest).
	snapC []int64
	snapG []float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		cIndex: map[string]*Counter{},
		gIndex: map[string]*Gauge{},
		tIndex: map[string]*Timing{},
		fIndex: map[string]Family{},
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.cIndex[name]; ok {
		return c
	}
	c := &Counter{Name: name}
	r.cIndex[name] = c
	r.counters = append(r.counters, c)
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gIndex[name]; ok {
		return g
	}
	g := &Gauge{Name: name}
	r.gIndex[name] = g
	r.gauges = append(r.gauges, g)
	return g
}

// Timing returns the named timing, creating it on first use.
func (r *Registry) Timing(name string) *Timing {
	if t, ok := r.tIndex[name]; ok {
		return t
	}
	t := &Timing{Name: name}
	r.tIndex[name] = t
	r.timings = append(r.timings, t)
	return t
}

// Counters returns all counters in registration order.
func (r *Registry) Counters() []*Counter { return r.counters }

// Gauges returns all gauges in registration order.
func (r *Registry) Gauges() []*Gauge { return r.gauges }

// Timings returns all timings in registration order.
func (r *Registry) Timings() []*Timing { return r.timings }

// Families returns all labeled families in registration order.
func (r *Registry) Families() []Family { return r.families }

// Snapshot records the current value of every counter and gauge at t. The
// value slices live in the registry's snapshot arena — see the Registry
// fields — so a slot-aligned series costs O(log n) chunk allocations for a
// whole run and none at all after a Reset warm-up.
func (r *Registry) Snapshot(t sim.Time) {
	s := Snapshot{T: t, Counters: r.carveC(len(r.counters)), Gauges: r.carveG(len(r.gauges))}
	for i, c := range r.counters {
		s.Counters[i] = c.v
	}
	for i, g := range r.gauges {
		s.Gauges[i] = g.v
	}
	r.snaps = append(r.snaps, s)
}

// carveC hands out n int64s from the counter arena, growing it geometrically
// when exhausted (superseded chunks stay referenced by the snapshots carved
// from them and are dropped with them).
func (r *Registry) carveC(n int) []int64 {
	if len(r.snapC)+n > cap(r.snapC) {
		c := 2 * cap(r.snapC)
		if c < 1024 {
			c = 1024
		}
		if c < n {
			c = n
		}
		r.snapC = make([]int64, 0, c)
	}
	out := r.snapC[len(r.snapC) : len(r.snapC)+n : len(r.snapC)+n]
	r.snapC = r.snapC[:len(r.snapC)+n]
	return out
}

// carveG is carveC for the gauge arena.
func (r *Registry) carveG(n int) []float64 {
	if len(r.snapG)+n > cap(r.snapG) {
		c := 2 * cap(r.snapG)
		if c < 1024 {
			c = 1024
		}
		if c < n {
			c = n
		}
		r.snapG = make([]float64, 0, c)
	}
	out := r.snapG[len(r.snapG) : len(r.snapG)+n : len(r.snapG)+n]
	r.snapG = r.snapG[:len(r.snapG)+n]
	return out
}

// Snapshots returns the recorded snapshots in time order.
func (r *Registry) Snapshots() []Snapshot { return r.snaps }

// Reset zeroes every instrument in place and drops the snapshot series while
// keeping all registrations, family rows, bucket arrays and arena capacity —
// the registry half of Recorder.Reset. Previously returned Snapshots are
// invalidated (their storage is recycled).
func (r *Registry) Reset() {
	for _, c := range r.counters {
		c.v = 0
	}
	for _, g := range r.gauges {
		g.v = 0
	}
	for _, t := range r.timings {
		t.Acc.Reset()
		t.HDR.Reset()
	}
	for _, f := range r.families {
		f.resetFamily()
	}
	r.snaps = r.snaps[:0]
	r.snapC = r.snapC[:0]
	r.snapG = r.snapG[:0]
}

// storageBytes measures the registry's retained storage — histogram pages
// and the snapshot arenas — for the recorder's observer-tax footprint line
// (Recorder.RetainedBytes).
func (r *Registry) storageBytes() int64 {
	if r == nil {
		return 0
	}
	b := int64(cap(r.snapC))*8 + int64(cap(r.snapG))*8
	b += int64(cap(r.snaps)) * 40 // Snapshot header: T + two slice headers
	for _, t := range r.timings {
		b += t.HDR.StorageBytes()
	}
	for _, f := range r.families {
		b += f.storageBytes()
	}
	return b
}

// Merge folds o into r, matching instruments by name: counters add, timings
// merge their full distributions (exact HDR buckets, exact means), and
// gauges — last-value-wins
// semantics — take o's value, so a sequence of merges ends with the last
// shard's reading. Instruments new to r are registered in o's order after
// r's existing ones, keeping merged registration order deterministic for a
// fixed merge order. Snapshots are NOT merged: their columns index the
// source registry's registration order, which need not match r's — per-shard
// timelines stay with their shard. Merging shard registries in a fixed shard
// order yields bit-identical results however the shards were scheduled; see
// internal/sweep.
func (r *Registry) Merge(o *Registry) {
	if o == nil {
		return
	}
	for _, c := range o.counters {
		r.Counter(c.Name).Add(c.v)
	}
	for _, g := range o.gauges {
		r.Gauge(g.Name).Set(g.v)
	}
	for _, t := range o.timings {
		r.Timing(t.Name).Merge(t)
	}
	for _, f := range o.families {
		mine, ok := r.fIndex[f.FamilyName()]
		if !ok {
			mine = f.emptyLike()
			r.fIndex[f.FamilyName()] = mine
			r.families = append(r.families, mine)
		}
		mine.mergeFamily(f)
	}
}

// Summary renders counters, gauges and timing statistics as an aligned text
// block for terminal reports.
func (r *Registry) Summary() string {
	var sb strings.Builder
	if len(r.counters) > 0 {
		sb.WriteString("counters:\n")
		for _, c := range r.counters {
			fmt.Fprintf(&sb, "  %-28s %12d\n", c.Name, c.v)
		}
	}
	if len(r.gauges) > 0 {
		sb.WriteString("gauges (last):\n")
		for _, g := range r.gauges {
			fmt.Fprintf(&sb, "  %-28s %12.2f\n", g.Name, g.v)
		}
	}
	if len(r.timings) > 0 {
		sb.WriteString("timings [µs]:\n")
		fmt.Fprintf(&sb, "  %-28s %10s %10s %10s %10s %10s %8s\n",
			"", "mean", "std", "p99", "p99.999", "worst", "n")
		for _, t := range r.timings {
			fmt.Fprintf(&sb, "  %-28s %10.2f %10.2f %10.2f %10.2f %10.2f %8d\n",
				t.Name, t.Acc.Mean(), t.Acc.Std(), float64(t.HDR.Quantile(0.99))/1000,
				float64(t.HDR.Quantile(0.99999))/1000, float64(t.HDR.Max())/1000, t.Acc.N())
		}
	}
	if len(r.families) > 0 {
		sb.WriteString("labeled families:\n")
		for _, f := range r.families {
			fmt.Fprintf(&sb, "  %s (%s):\n", f.FamilyName(), f.FamilyKind())
			for _, row := range f.Rows() {
				switch f.FamilyKind() {
				case FamilyCounter:
					fmt.Fprintf(&sb, "    %-42s %12d\n", labelString(row.Labels), row.Count)
				case FamilyGauge:
					fmt.Fprintf(&sb, "    %-42s %12.2f\n", labelString(row.Labels), row.Value)
				case FamilyHist:
					fmt.Fprintf(&sb, "    %-42s mean %10.2f p99 %10.2f worst %10.2f n %8d\n",
						labelString(row.Labels), row.Hist.Mean()/1000,
						float64(row.Hist.Quantile(0.99))/1000,
						float64(row.Hist.Max())/1000, row.Hist.N())
				}
			}
		}
	}
	return sb.String()
}

// labelString renders a label list in Prometheus selector syntax:
// {ue="0",dir="DL"}.
func labelString(ls []Label) string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue escapes a label value per the Prometheus text format:
// backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
