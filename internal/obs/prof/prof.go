// Package prof is the simulator's self-profiler: where internal/obs observes
// the simulated packet, prof observes the simulator itself. It rides the
// sim.EngineSink dispatch — attaching wraps whatever sink is already mounted,
// and with nothing attached the engine hot path stays the single nil check
// gated by BenchmarkTracingOverhead — and attributes wall-clock time to event
// *types*: every interval from one fired event to the next is charged to the
// event that was running, so the per-type wall times partition the event-loop
// wall time exactly (TestProfilerPartition at the repository root).
//
// The resulting Report is the simulator's own Fig. 3: a sorted "top event
// types by wall share" table, events/sec, the sim-time-to-wall-time ratio,
// heap-operation stats (pushes/pops, max/mean queue depth) and Go runtime
// deltas (allocs, bytes, GC pauses). It exports as a Markdown table, as a
// schema-versioned JSONL "profile" record, and into the obs metrics registry
// for Prometheus/-serve scrapes.
package prof

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"urllcsim/internal/metrics"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/jsonl"
	"urllcsim/internal/sim"
)

// ReportSchema versions the JSONL "profile" record; bump on any
// breaking field change. v2: heap pops count fired events only (the timing
// wheel excises cancelled events instead of lazily discarding them, so the
// old pops-include-dead-discards reading is gone) and cancels are reported
// as their own counter. v3: reports gain the measured observer-tax section
// ("obs") when the profiled run metered its recorder via MeterObs.
const ReportSchema = "urllcsim-profile/v3"

// typeStat accumulates one event type's attribution.
type typeStat struct {
	key    string
	count  uint64
	wallNs int64
}

// Profiler measures the engine it is attached to. Attach with Attach, run
// the simulation, then call Finish for the Report. Like the engine and the
// recorder, a Profiler is not safe for concurrent use.
type Profiler struct {
	eng  *sim.Engine
	next sim.EngineSink // previously mounted sink; events are forwarded to it

	attachWall time.Time
	started    bool
	prevWall   time.Time
	prevIdx    int

	keys  map[string]int
	types []*typeStat

	depth    metrics.Accumulator // queue depth sampled at every fired event
	maxDepth int

	startSim     sim.Time
	lastSim      sim.Time
	startSteps   uint64
	startPushes  uint64
	startPops    uint64
	startCancels uint64
	m0           runtime.MemStats

	// obsRec, when set by MeterObs, is the metered recorder whose measured
	// self-cost Finish folds into the report's observer-tax section.
	obsRec *obs.Recorder

	report *Report
}

// Attach mounts a profiler on the engine, wrapping any sink already present
// (an obs.Recorder keeps receiving every event through the profiler). The
// profiler snapshots runtime.MemStats and the engine's queue counters at
// attach time, so the eventual Report covers exactly the attached window.
// The counters are the engine's own Pushes/Pops/Cancels books — pops are no
// longer derived from a push/queue-length identity, which node pooling and
// cancel excision would silently break.
func Attach(eng *sim.Engine) *Profiler {
	p := &Profiler{
		eng:          eng,
		next:         eng.Sink,
		attachWall:   time.Now(),
		keys:         map[string]int{},
		startSim:     eng.Now(),
		lastSim:      eng.Now(),
		startSteps:   eng.Steps(),
		startPushes:  eng.Pushes(),
		startPops:    eng.Pops(),
		startCancels: eng.Cancels(),
	}
	runtime.ReadMemStats(&p.m0)
	eng.Sink = p
	return p
}

// MeterObs enables observer-tax metering on rec and arranges for Finish to
// fold the recorder's measured self-cost — wall time inside recording
// methods, records handled, retained storage bytes — into the report's "obs"
// section. Nil-safe; call between Attach and the run.
func (p *Profiler) MeterObs(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	rec.EnableMeter()
	p.obsRec = rec
}

// EngineEvent implements sim.EngineSink. It is called by the engine just
// before the event's callback runs, so the wall interval from one call to
// the next is the cost of the *previous* event: its callback, the heap
// operations it caused, and the dispatch overhead. The first call opens the
// attribution window; Finish closes it.
func (p *Profiler) EngineEvent(t sim.Time, name string) {
	now := time.Now()
	if p.started {
		p.types[p.prevIdx].wallNs += now.Sub(p.prevWall).Nanoseconds()
	} else {
		p.started = true
	}
	idx, ok := p.keys[name]
	if !ok {
		idx = len(p.types)
		p.keys[name] = idx
		p.types = append(p.types, &typeStat{key: name})
	}
	p.types[idx].count++
	d := p.eng.Pending()
	p.depth.Add(float64(d))
	if d > p.maxDepth {
		p.maxDepth = d
	}
	p.lastSim = t
	p.prevIdx = idx
	p.prevWall = now
	if p.next != nil {
		p.next.EngineEvent(t, name)
	}
}

// Finish closes the last attribution interval, detaches the profiler
// (restoring the wrapped sink) and returns the Report. Idempotent: later
// calls return the same Report.
func (p *Profiler) Finish() *Report {
	if p.report != nil {
		return p.report
	}
	now := time.Now()
	var attributed int64
	if p.started {
		p.types[p.prevIdx].wallNs += now.Sub(p.prevWall).Nanoseconds()
	}
	if p.eng.Sink == p {
		p.eng.Sink = p.next
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	var events uint64
	stats := make([]EventStat, len(p.types))
	for i, ts := range p.types {
		events += ts.count
		attributed += ts.wallNs
		stats[i] = EventStat{Key: ts.key, Count: ts.count, WallNs: ts.wallNs}
	}
	for i := range stats {
		if attributed > 0 {
			stats[i].Share = float64(stats[i].WallNs) / float64(attributed)
		}
		if stats[i].Count > 0 {
			stats[i].MeanNs = float64(stats[i].WallNs) / float64(stats[i].Count)
		}
	}
	// Sort by wall share descending, key ascending on ties, so the table —
	// and the JSONL record — are deterministic for a given run.
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].WallNs != stats[j].WallNs {
			return stats[i].WallNs > stats[j].WallNs
		}
		return stats[i].Key < stats[j].Key
	})

	r := &Report{
		Schema:       ReportSchema,
		Events:       events,
		WallNs:       now.Sub(p.attachWall).Nanoseconds(),
		AttributedNs: attributed,
		SimNs:        int64(p.lastSim.Sub(p.startSim)),
		Types:        stats,
		Heap: HeapStats{
			Pushes:    p.eng.Pushes() - p.startPushes,
			Pops:      p.eng.Pops() - p.startPops,
			Cancels:   p.eng.Cancels() - p.startCancels,
			MaxDepth:  p.maxDepth,
			MeanDepth: p.depth.Mean(),
		},
		Runtime: RuntimeStats{
			Allocs:     m1.Mallocs - p.m0.Mallocs,
			AllocBytes: m1.TotalAlloc - p.m0.TotalAlloc,
			NumGC:      m1.NumGC - p.m0.NumGC,
			GCPauseNs:  m1.PauseTotalNs - p.m0.PauseTotalNs,
		},
	}
	if attributed > 0 {
		r.EventsPerSec = float64(events) / (float64(attributed) / 1e9)
		r.SimWallRatio = float64(r.SimNs) / float64(attributed)
	}
	if mr := p.obsRec.MeterReport(); mr != nil {
		tax := &ObsTax{
			WallNs:        mr.WallNs,
			Records:       mr.Records,
			RetainedBytes: mr.RetainedBytes,
			Categories:    mr.Categories,
		}
		if attributed > 0 {
			tax.ShareOfWall = float64(tax.WallNs) / float64(attributed)
		}
		r.Obs = tax
	}
	p.report = r
	return r
}

// EventStat is one event type's share of the event-loop wall time.
type EventStat struct {
	Key    string  `json:"key"`
	Count  uint64  `json:"count"`
	WallNs int64   `json:"wall_ns"`
	Share  float64 `json:"share"`   // fraction of AttributedNs
	MeanNs float64 `json:"mean_ns"` // WallNs / Count
}

// HeapStats describes the engine's event-queue behaviour over the profiled
// window, read from the engine's explicit operation counters. Every pop
// fires an event (the timing wheel excises cancelled events in O(1) instead
// of lazily discarding them on pop), so Pops equals the window's fired-event
// count; Cancels counts those excisions. Depth is the raw queue length
// sampled at every fired event.
type HeapStats struct {
	Pushes    uint64  `json:"pushes"`
	Pops      uint64  `json:"pops"`
	Cancels   uint64  `json:"cancels"`
	MaxDepth  int     `json:"max_depth"`
	MeanDepth float64 `json:"mean_depth"`
}

// ObsTax is the measured cost of observation itself: wall time spent inside
// the recorder's recording methods (by category), records handled, the
// recorder's retained storage, and that wall time as a share of the
// event-loop's attributed wall. Unlike the per-event-type table — where the
// observer's cost is smeared across whichever events happened to record —
// this line is measured at the recording call sites, so "what does tracing
// cost this run" has an explicit, first-class answer.
type ObsTax struct {
	WallNs        int64           `json:"wall_ns"`
	Records       int64           `json:"records"`
	RetainedBytes int64           `json:"retained_bytes"`
	ShareOfWall   float64         `json:"share_of_wall"`
	Categories    []obs.MeterStat `json:"categories,omitempty"`
}

// RuntimeStats are Go runtime deltas over the profiled window, from
// runtime.ReadMemStats at attach and finish.
type RuntimeStats struct {
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	NumGC      uint32 `json:"num_gc"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`
}

// Report is the profiler's verdict on one run: the simulator's own latency
// budget breakdown. Per-type wall times partition AttributedNs exactly (the
// window from the first fired event to Finish); WallNs additionally covers
// attach-to-first-event setup.
type Report struct {
	Schema       string       `json:"schema"`
	Events       uint64       `json:"events"`
	WallNs       int64        `json:"wall_ns"`
	AttributedNs int64        `json:"attributed_ns"`
	SimNs        int64        `json:"sim_ns"`
	EventsPerSec float64      `json:"events_per_sec"`
	SimWallRatio float64      `json:"sim_wall_ratio"`
	Types        []EventStat  `json:"event_types"`
	Heap         HeapStats    `json:"heap"`
	Runtime      RuntimeStats `json:"runtime"`
	Obs          *ObsTax      `json:"obs,omitempty"`
}

// jsonProfile is the JSONL wire form: the Report tagged with the shared
// "kind" discriminator every other record in the stream carries.
type jsonProfile struct {
	Kind string `json:"kind"` // "profile"
	*Report
}

// WriteJSONL writes the report as a single JSONL "profile" record, the
// machine-readable sibling of the Markdown table. The record nests the full
// event-type breakdown, heap and runtime stats on one line, so it can be
// appended to (or grepped out of) an obs span/outcome/event stream.
func (r *Report) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(jsonProfile{Kind: "profile", Report: r}); err != nil {
		return err
	}
	return bw.Flush()
}

// MarkdownTable renders the sorted "top event types by wall share" table —
// the simulator's Fig. 3 — followed by throughput, heap and runtime lines.
func (r *Report) MarkdownTable() string {
	var sb strings.Builder
	sb.WriteString("## Engine self-profile: top event types by wall share\n\n")
	sb.WriteString("| event type | count | wall ms | share | mean µs |\n")
	sb.WriteString("|---|---:|---:|---:|---:|\n")
	for _, s := range r.Types {
		fmt.Fprintf(&sb, "| `%s` | %d | %.3f | %.1f%% | %.2f |\n",
			s.Key, s.Count, float64(s.WallNs)/1e6, 100*s.Share, s.MeanNs/1e3)
	}
	fmt.Fprintf(&sb, "\n- events: %d fired in %.3f ms attributed wall (%.0f events/sec)\n",
		r.Events, float64(r.AttributedNs)/1e6, r.EventsPerSec)
	fmt.Fprintf(&sb, "- sim time advanced: %.3f ms → sim/wall ratio %.2f×\n",
		float64(r.SimNs)/1e6, r.SimWallRatio)
	fmt.Fprintf(&sb, "- queue: %d pushes, %d pops, %d cancels, depth max %d mean %.1f\n",
		r.Heap.Pushes, r.Heap.Pops, r.Heap.Cancels, r.Heap.MaxDepth, r.Heap.MeanDepth)
	fmt.Fprintf(&sb, "- runtime: %d allocs (%.1f KB), %d GCs, %.3f ms GC pause\n",
		r.Runtime.Allocs, float64(r.Runtime.AllocBytes)/1024,
		r.Runtime.NumGC, float64(r.Runtime.GCPauseNs)/1e6)
	if r.Obs != nil {
		fmt.Fprintf(&sb, "- observer tax: %.3f ms wall (%.1f%% of attributed) for %d records, %.1f KB retained\n",
			float64(r.Obs.WallNs)/1e6, 100*r.Obs.ShareOfWall,
			r.Obs.Records, float64(r.Obs.RetainedBytes)/1024)
	}
	return sb.String()
}

// Publish pushes the report into an obs recorder's metrics registry so a
// live -serve endpoint (Prometheus) or -metrics-out export carries the
// profiler's view alongside the simulation's. Nil-safe like every recorder
// method.
func (r *Report) Publish(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	rec.Count("prof.events", int64(r.Events))
	rec.SetGauge("prof.events_per_sec", r.EventsPerSec)
	rec.SetGauge("prof.sim_wall_ratio", r.SimWallRatio)
	rec.Count("prof.heap.push", int64(r.Heap.Pushes))
	rec.Count("prof.heap.pop", int64(r.Heap.Pops))
	rec.Count("prof.heap.cancel", int64(r.Heap.Cancels))
	rec.SetGauge("prof.heap.depth_max", float64(r.Heap.MaxDepth))
	rec.SetGauge("prof.heap.depth_mean", r.Heap.MeanDepth)
	rec.Count("prof.runtime.allocs", int64(r.Runtime.Allocs))
	rec.Count("prof.runtime.gc_pause_ns", int64(r.Runtime.GCPauseNs))
	for _, s := range r.Types {
		rec.Count("prof.count."+s.Key, int64(s.Count))
		rec.Count("prof.wall_ns."+s.Key, s.WallNs)
	}
	if r.Obs != nil {
		rec.Count("prof.obs.records", r.Obs.Records)
		rec.Count("prof.obs.wall_ns", r.Obs.WallNs)
		rec.SetGauge("prof.obs.retained_bytes", float64(r.Obs.RetainedBytes))
		rec.SetGauge("prof.obs.share_of_wall", r.Obs.ShareOfWall)
		for _, c := range r.Obs.Categories {
			rec.Count("prof.obs.wall_ns."+c.Category, c.WallNs)
		}
	}
}

// ReadJSONL scans a JSONL stream and returns every "profile" record in file
// order. Other record kinds (spans, outcomes, flight, slots, KPI …) are
// skipped, so one mixed file feeds every reader; any profile schema other
// than ReportSchema is an error, never a zero-filled report.
func ReadJSONL(r io.Reader) ([]*Report, error) {
	var out []*Report
	err := jsonl.Read(r, "prof", map[string]jsonl.Kind{
		"profile": {Schema: ReportSchema, Decode: func(line []byte) error {
			var rep Report
			if err := json.Unmarshal(line, &rep); err != nil {
				return err
			}
			out = append(out, &rep)
			return nil
		}},
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
