// Package analyze consumes the observability layer's output — structured
// spans, packet outcomes and metric streams — and turns it into the paper's
// answers: a deadline-budget audit of every packet against the 0.5 ms URLLC
// one-way requirement with misses attributed to the dominant latency source
// (protocol / processing / radio, the Fig. 3 taxonomy), HDR-style tail
// histograms resolving p99.999 (the 1e-5 reliability requirement lives
// there), and Markdown/CSV reports reproducing the Fig. 3 temporal breakdown
// and Fig. 4-style feasibility tables.
//
// The analyzer works equally from a live Recorder (FromRecorder) and from an
// exported JSONL trace (ReadJSONL) — the JSONL round trip is lossless to the
// nanosecond, so offline audits of archived runs produce byte-identical
// budget tables.
package analyze

import (
	"sort"

	"urllcsim/internal/core"
	"urllcsim/internal/metrics"
	"urllcsim/internal/obs"
	"urllcsim/internal/sim"
)

// Journey is one packet's reconstructed trip: its spans in chronological
// order plus, when the trace carries one, the recorded outcome.
type Journey struct {
	Packet int
	Dir    obs.Dir
	Spans  []obs.Span

	// SpanSum is the summed duration of all spans. For first-attempt
	// deliveries the spans partition the one-way latency exactly (the
	// TestSpanPartition invariant), so SpanSum == Latency; retransmitted
	// packets revisit MAC/PHY and their HARQ spans overlap the feedback
	// round trip, so SpanSum can exceed Latency.
	SpanSum sim.Duration

	// BySource splits SpanSum across the paper's three latency sources.
	BySource [core.NumSources]sim.Duration

	// Start/End bracket the journey; Contiguous reports whether the spans
	// tile [Start, End] with no gaps or overlaps.
	Start, End sim.Time
	Contiguous bool

	// Outcome fields, valid when HasOutcome (traces written by this
	// repository always carry outcomes; hand-fed span sets may not).
	HasOutcome bool
	Delivered  bool
	Latency    sim.Duration
	Attempts   int
}

// OneWay returns the packet's one-way latency: the recorded outcome when
// present, otherwise the span extent.
func (j *Journey) OneWay() sim.Duration {
	if j.HasOutcome {
		return j.Latency
	}
	return j.End.Sub(j.Start)
}

// BudgetExact reports whether the per-source budget sums exactly to the
// one-way latency — true for first-attempt deliveries by the span-partition
// invariant.
func (j *Journey) BudgetExact() bool {
	return j.HasOutcome && j.SpanSum == j.Latency
}

// Dominant returns the latency source with the largest share of the
// journey's budget.
func (j *Journey) Dominant() core.Source {
	best := core.Protocol
	for _, s := range core.Sources {
		if j.BySource[s] > j.BySource[best] {
			best = s
		}
	}
	return best
}

// Journeys groups a trace's spans into per-packet journeys, ordered by
// packet id, and attaches outcomes.
func Journeys(tr *Trace) []*Journey {
	byID := map[int]*Journey{}
	var order []int
	for s := range tr.Spans.All() {
		j := byID[s.Packet]
		if j == nil {
			j = &Journey{Packet: s.Packet, Dir: s.Dir}
			byID[s.Packet] = j
			order = append(order, s.Packet)
		}
		if j.Dir == obs.DirNone {
			j.Dir = s.Dir
		}
		j.Spans = append(j.Spans, s)
	}
	for o := range tr.Outcomes.All() {
		j := byID[o.Packet]
		if j == nil {
			j = &Journey{Packet: o.Packet, Dir: o.Dir}
			byID[o.Packet] = j
			order = append(order, o.Packet)
		}
		j.HasOutcome = true
		j.Delivered = o.Delivered
		j.Latency = o.Latency
		j.Attempts = o.Attempts
	}
	sort.Ints(order)
	out := make([]*Journey, 0, len(order))
	for _, id := range order {
		j := byID[id]
		sort.SliceStable(j.Spans, func(a, b int) bool { return j.Spans[a].Start < j.Spans[b].Start })
		j.Contiguous = len(j.Spans) > 0
		for i, s := range j.Spans {
			j.SpanSum += s.Dur
			j.BySource[s.Source] += s.Dur
			if i == 0 {
				j.Start = s.Start
			} else if s.Start != j.Spans[i-1].End() {
				j.Contiguous = false
			}
			if e := s.End(); e > j.End {
				j.End = e
			}
		}
		out = append(out, j)
	}
	return out
}

// StepStat aggregates one journey step (a Fig. 3 row) across packets of one
// direction.
type StepStat struct {
	Step   string
	Layer  obs.Layer
	Source core.Source
	N      int64
	Total  sim.Duration
	// Dur and StartOffset are in the paper's µs unit: per-occurrence
	// duration and start relative to the packet's journey start (the
	// temporal position in Fig. 3's timeline).
	Dur         metrics.Accumulator
	StartOffset metrics.Accumulator
}

// DirStats is the audit of one direction within one trace.
type DirStats struct {
	Dir obs.Dir

	// Packet accounting. Reliability counts delivered-within-deadline over
	// offered — the URLLC five-nines bar.
	N, Delivered, Lost  int64
	Retransmitted       int64
	DeadlineMet, Missed int64
	Rel                 metrics.Reliability

	// Hist holds delivered one-way latencies in an HDR-style histogram:
	// p50–p99.999 and worst case with O(buckets) memory, mergeable across
	// shards.
	Hist *metrics.LogHistogram

	// Budget: per-source totals over all audited spans, per-packet means,
	// and the dominant source of each deadline miss.
	BySource     [core.NumSources]sim.Duration
	SourceAcc    [core.NumSources]metrics.Accumulator // per-packet µs
	MissDominant [core.NumSources]int64

	// Steps lists the Fig. 3 rows in first-seen (chronological) order.
	Steps     []*StepStat
	stepIndex map[string]*StepStat
}

// BudgetTotal is the summed budget across sources.
func (d *DirStats) BudgetTotal() sim.Duration {
	var t sim.Duration
	for _, s := range core.Sources {
		t += d.BySource[s]
	}
	return t
}

// Audit is a deadline-budget audit of one trace. SampleRate is the trace's
// effective packet sample rate (1 = unsampled): span-derived tables describe
// that share of the population, while outcome-derived counts and tail
// quantiles are exact at every rate (outcomes are never sampled).
type Audit struct {
	Label      string
	Deadline   sim.Duration
	SampleRate float64
	Journeys   []*Journey
	// Dirs holds per-direction stats for directions present in the trace,
	// UL first.
	Dirs []*DirStats
}

// Dir returns the stats for d, or nil when the trace has no such packets.
func (a *Audit) Dir(d obs.Dir) *DirStats {
	for _, s := range a.Dirs {
		if s.Dir == d {
			return s
		}
	}
	return nil
}

// Run audits a trace against a one-way deadline. Every packet is judged
// (delivered late ⇒ miss, lost ⇒ miss), misses are attributed to the
// journey's dominant latency source, and per-direction budget tables and
// tail histograms are built.
func Run(tr *Trace, label string, deadline sim.Duration) *Audit {
	a := &Audit{Label: label, Deadline: deadline, SampleRate: tr.EffectiveSampleRate(), Journeys: Journeys(tr)}
	get := func(dir obs.Dir) *DirStats {
		for _, s := range a.Dirs {
			if s.Dir == dir {
				return s
			}
		}
		s := &DirStats{
			Dir:       dir,
			Rel:       metrics.Reliability{Deadline: deadline},
			Hist:      metrics.NewLogHistogram(),
			stepIndex: map[string]*StepStat{},
		}
		a.Dirs = append(a.Dirs, s)
		return s
	}
	for _, j := range a.Journeys {
		d := get(j.Dir)
		d.N++
		delivered := !j.HasOutcome || j.Delivered
		lat := j.OneWay()
		d.Rel.Record(delivered, lat)
		if !delivered {
			d.Lost++
			d.Missed++
			d.MissDominant[j.Dominant()]++
		} else {
			d.Delivered++
			d.Hist.AddDuration(lat)
			if lat <= deadline {
				d.DeadlineMet++
			} else {
				d.Missed++
				d.MissDominant[j.Dominant()]++
			}
		}
		if j.HasOutcome && j.Attempts > 1 {
			d.Retransmitted++
		}
		for _, src := range core.Sources {
			d.BySource[src] += j.BySource[src]
			d.SourceAcc[src].AddDuration(j.BySource[src])
		}
		for _, s := range j.Spans {
			st := d.stepIndex[s.Step]
			if st == nil {
				st = &StepStat{Step: s.Step, Layer: s.Layer, Source: s.Source}
				d.stepIndex[s.Step] = st
				d.Steps = append(d.Steps, st)
			}
			st.N++
			st.Total += s.Dur
			st.Dur.AddDuration(s.Dur)
			st.StartOffset.AddDuration(s.Start.Sub(j.Start))
		}
	}
	// UL before DL, stable order for reports.
	sort.SliceStable(a.Dirs, func(i, k int) bool { return a.Dirs[i].Dir < a.Dirs[k].Dir })
	return a
}

// FromRecorder builds a Trace directly from a live recorder — the in-process
// path (urllcsim -kpi-out, urllc-sweep, the cell experiments, tests) that
// skips JSONL serialisation. The trace aliases the recorder's logs; no
// record is copied.
func FromRecorder(rec *obs.Recorder) *Trace {
	return &Trace{Spans: rec.Spans(), Outcomes: rec.Outcomes(), SampleRate: rec.SampleRate()}
}

// EffectiveSampleRate returns the trace's packet sample rate, treating the
// zero value (hand-built traces, pre-sampling files) as unsampled.
func (tr *Trace) EffectiveSampleRate() float64 {
	if tr.SampleRate <= 0 || tr.SampleRate >= 1 {
		return 1
	}
	return tr.SampleRate
}

// MergeTraces concatenates shard traces into one, renumbering packet ids so
// journeys from different shards can never collide: shard i's ids are offset
// past the largest id of every earlier shard. The merge is pure
// concatenation in the given shard order, so a fixed order yields a
// byte-identical trace no matter how the shards were produced (see
// internal/sweep); nil shards are skipped.
func MergeTraces(shards ...*Trace) *Trace {
	out := &Trace{SampleRate: 1}
	base := 0
	for _, tr := range shards {
		if tr == nil {
			continue
		}
		// Sweep shards share one sample rate by construction; the merged
		// trace carries it so downstream reports state it.
		if r := tr.EffectiveSampleRate(); r < 1 {
			out.SampleRate = r
		}
		next := base
		renumber := func(packet int) int {
			id := base + packet
			next = max(next, id+1)
			return id
		}
		for s := range tr.Spans.All() {
			s.Packet = renumber(s.Packet)
			out.Spans.Append(s)
		}
		for o := range tr.Outcomes.All() {
			o.Packet = renumber(o.Packet)
			out.Outcomes.Append(o)
		}
		base = next
	}
	return out
}
