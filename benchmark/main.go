// Command benchmark is urllcsim's benchmark: four workloads run through the
// public facade, each op checked against the digest of its simulated
// outcomes, with end-to-end metrics from untraced ops and per-layer metrics
// from a separate traced pass.
//
// It is one client in a closed loop: ops run back to back in one goroutine,
// round-robin across the selected workloads. Each op's traffic is offered
// up front in virtual time, so no host-side generator can run late.
//
//	bash benchmark/run.sh                           # every workload, interleaved, traced
//	bash benchmark/run.sh -workload cell-dynamic -seconds 20 -trace 0
//	bash benchmark/run.sh -compare A.json B.json    # two -out files against BENCHMARK.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end with -trace 0, per-layer with -trace 1).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

const (
	warmupRounds = 3
	// minRounds keeps ten timed ops beyond op_cal_p90 however short
	// -seconds is.
	minRounds = 100
	// tracedOps is how many traced ops per workload the per-layer
	// metrics are medians of; each is paired with an untraced op.
	tracedOps = 5
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all to interleave every workload")
	seed := fs.Uint64("seed", 1, "seed of every workload input")
	seconds := fs.Float64("seconds", 45, "length of the timed rounds; at least 100 rounds run")
	trace := fs.Int("trace", 1, "1 adds the traced pass and reports per-layer metrics; 0 reports end-to-end metrics")
	out := fs.String("out", "", "write every metric of every workload to this JSON file, the input of -compare")
	traceOut := fs.String("trace-out", ".bench_build/trace.json", "Chrome trace JSON of the traced pass")
	compare := fs.Bool("compare", false, "compare the end-to-end metrics of two -out files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two -out files")
			return 2
		}
		ok, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; -trace takes 0 or 1")
		return 2
	}
	ws, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}

	// One client on one core: the garbage collector then shares the op's
	// core, so an op's cost is all the CPU work it causes and does not
	// depend on whether the host lets the second core run. In an
	// interleaved A/B over 8 seeds the spread of cell-traced's op_cal_p50
	// was 8 % with 2 cores and 2.3 % with 1.
	runtime.GOMAXPROCS(1)
	r := newRunner(*seed, stderr)
	rep, err := r.bench(ws, time.Duration(*seconds*float64(time.Second)), *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *out != "" {
		if err := rep.writeOut(*out, *seed); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	rep.print(stdout, *seed, *trace == 1)
	return 0
}

func selectWorkloads(name string) ([]*workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []*workload{w}, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want all, %s)", name, strings.Join(names, ", "))
}

// A metric is reported by name with its unit; better is the direction of
// improvement. BENCHMARK.json lists the same names (TestBenchmarkJSON).
type metric struct{ name, unit, better string }

var endToEnd = []metric{
	{"pkts_per_cal", "1/cal", "higher"},
	{"op_cal_p50", "cal", "lower"},
	{"op_cal_p90", "cal", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"allocs_per_pkt", "1/pkt", "lower"},
	{"alloc_bytes_per_pkt", "B/pkt", "lower"},
}

var perLayer = []metric{
	{"facade.build_ms", "ms", "lower"},
	{"facade.offer_ms", "ms", "lower"},
	{"workload.gen_ms", "ms", "lower"},
	{"facade.fold_ms", "ms", "lower"},
	{"sim.events_per_pkt", "1/pkt", "lower"},
	{"sim.pushes_per_pkt", "1/pkt", "lower"},
	{"sim.cancels_per_pkt", "1/pkt", "lower"},
	{"sim.pool_allocs", "count", "lower"},
	{"sim.queue_depth_max", "count", "lower"},
	{"node.tick.busy_ms", "ms", "lower"},
	{"node.tick.ns_per_event", "ns", "lower"},
	{"node.ul_tx.busy_ms", "ms", "lower"},
	{"node.ul_tx.ns_per_event", "ns", "lower"},
	{"node.ul_rx.busy_ms", "ms", "lower"},
	{"node.ul_rx.ns_per_event", "ns", "lower"},
	{"node.dl_tx.busy_ms", "ms", "lower"},
	{"node.dl_tx.ns_per_event", "ns", "lower"},
	{"node.dl_rx.busy_ms", "ms", "lower"},
	{"node.dl_rx.ns_per_event", "ns", "lower"},
	{"node.other.busy_ms", "ms", "lower"},
	{"codec.sdap_ns", "ns", "lower"},
	{"codec.pdcp_ns", "ns", "lower"},
	{"codec.rlc_ns", "ns", "lower"},
	{"codec.mac_ns", "ns", "lower"},
	{"codec.sdap_allocs", "count", "lower"},
	{"codec.pdcp_allocs", "count", "lower"},
	{"codec.rlc_allocs", "count", "lower"},
	{"codec.mac_allocs", "count", "lower"},
	{"sched.srs", "count", "lower"},
	{"sched.grants", "count", "lower"},
	{"mac.cg_collisions", "count", "lower"},
	{"phy.losses", "count", "lower"},
	{"radio.misses", "count", "lower"},
	{"pkt.delivered", "count", "higher"},
	{"pkt.lost", "count", "lower"},
	{"obs.record_ms", "ms", "lower"},
	{"obs.kpi_ms", "ms", "lower"},
	{"obs.export_ms", "ms", "lower"},
	{"obs.export_mb", "MB", "lower"},
	{"obs.retained_mb", "MB", "lower"},
	{"gc.cycles_per_op", "count", "lower"},
	{"gc.pause_ms_per_op", "ms", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"trace.unattributed_ns", "ns", "lower"},
}

// runner runs and checks ops. An op fails when it returns an error, leaves
// a packet unresolved at the horizon, or its outcome digest differs from
// the expected one: the golden digest at seed 1, else the workload's first
// op's.
type runner struct {
	seed   uint64
	expect map[string]uint64
	tally  map[string]*tally
	out    bytes.Buffer // cell-traced's exports, reused across ops
	cal    *calibration
	log    io.Writer
}

type tally struct{ attempted, failed int }

func newRunner(seed uint64, log io.Writer) *runner {
	r := &runner{seed: seed, expect: map[string]uint64{}, tally: map[string]*tally{},
		cal: newCalibration(), log: log}
	if seed == 1 {
		for name, d := range golden {
			r.expect[name] = d
		}
	}
	for _, w := range workloads {
		r.tally[w.name] = &tally{}
	}
	return r
}

// sample is one op's host cost.
type sample struct {
	wall, setup, run int64 // ns
	cal              int64 // ns of the calibration run just before the op
	allocs, bytes    uint64
	gcs              uint32
	pauseNs          uint64
}

// do runs and checks one op of w, with sink mounted when non-nil. It
// returns nil for a failed op.
//
// Every op starts from a collected heap, so it pays for collecting its own
// garbage and not for what the op before it, of this or another workload,
// left. The calibration run comes last, just before the op.
func (r *runner) do(w *workload, sink *eventSink) (*op, sample) {
	runtime.GC()
	cal := r.cal.run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o, err := w.exec(r.seed, sink, &r.out)
	runtime.ReadMemStats(&after)
	t := r.tally[w.name]
	t.attempted++
	if err == nil {
		err = r.check(w, o)
	}
	if err != nil {
		t.failed++
		fmt.Fprintf(r.log, "benchmark: %s: op %d failed: %v\n", w.name, t.attempted, err)
		return nil, sample{}
	}
	return o, sample{
		wall: o.wall(), setup: o.setup(), run: o.run(), cal: cal,
		allocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc,
		gcs: after.NumGC - before.NumGC, pauseNs: after.PauseTotalNs - before.PauseTotalNs,
	}
}

func (r *runner) check(w *workload, o *op) error {
	if len(o.results) != o.offered {
		return fmt.Errorf("%d of %d packets unresolved at the %v horizon",
			o.offered-len(o.results), o.offered, o.horizon)
	}
	d := o.digest()
	want, ok := r.expect[w.name]
	if !ok {
		r.expect[w.name] = d
		return nil
	}
	if d != want {
		return fmt.Errorf("outcome digest %016x, want %016x", d, want)
	}
	return nil
}

// stats is what one workload's ops measured.
type stats struct {
	timed    []sample
	offered  int
	horizon  time.Duration
	heapLive float64 // bytes one op retains, results and recorder included

	traced []opTrace
	paired []sample // the untraced op run just after each traced one
	last   facts    // of the last traced op
}

// facts are an op's exact counts: deterministic for a seed.
type facts struct {
	steps, pushes, cancels, poolAllocs              uint64
	depthMax                                        int
	srs, grants, collisions, phyLosses, radioMisses int
	delivered, lost                                 int
	exportBytes                                     int
}

func factsOf(o *op, s *eventSink) facts {
	eng := o.sc.Engine()
	d := 0
	for _, r := range o.results {
		if r.Delivered {
			d++
		}
	}
	return facts{
		steps: eng.Steps(), pushes: eng.Pushes(), cancels: eng.Cancels(), poolAllocs: eng.PoolAllocs(),
		depthMax: s.depthMax,
		srs:      o.sc.SRsSent(), grants: o.sc.GrantsIssued(), collisions: o.sc.CGCollisions(),
		phyLosses: o.sc.PHYLosses(), radioMisses: o.sc.RadioMisses(),
		delivered: d, lost: len(o.results) - d,
		exportBytes: len(o.exports),
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// heapLive runs one extra op and measures the heap it keeps reachable while
// its scenario, results and recorder are still referenced.
func (r *runner) heapLive(w *workload) float64 {
	base := liveHeap()
	o, _ := r.do(w, nil)
	live := liveHeap()
	runtime.KeepAlive(o)
	return live - base
}

// tracedOp runs one op of w with sink mounted and records its spans.
func (r *runner) tracedOp(w *workload, tid int, sink *eventSink, tr *tracer) (opTrace, facts, bool) {
	o, s := r.do(w, sink)
	if o == nil {
		return opTrace{}, facts{}, false
	}
	ot := tr.add(tid, o, sink)
	ot.cal = s.cal
	return ot, factsOf(o, sink), true
}

// report is every metric of every measured workload.
type report struct {
	workloads []*workload
	stats     map[string]*stats
	tally     map[string]*tally
	e2e       map[string]map[string]float64
	layer     map[string]map[string]float64
	correct   bool
}

// bench warms up, runs the timed rounds, measures each workload's live heap
// and, when traced, runs the traced pass and the codec kernel pass.
func (r *runner) bench(ws []*workload, seconds time.Duration, traced bool, traceOut string) (*report, error) {
	st := map[string]*stats{}
	for _, w := range workloads {
		st[w.name] = &stats{}
	}
	for i := 0; i < warmupRounds; i++ {
		for _, w := range ws {
			r.do(w, nil)
		}
	}
	start := clock()
	for round := 0; round < minRounds || clock()-start < int64(seconds); round++ {
		for _, w := range ws {
			o, s := r.do(w, nil)
			if o != nil {
				ts := st[w.name]
				ts.timed = append(ts.timed, s)
				ts.offered, ts.horizon = o.offered, o.horizon
			}
		}
	}
	for _, w := range ws {
		st[w.name].heapLive = r.heapLive(w)
	}
	rep := &report{workloads: ws, stats: st, tally: r.tally,
		e2e: map[string]map[string]float64{}, layer: map[string]map[string]float64{}}
	for _, w := range ws {
		rep.e2e[w.name] = endToEndMetrics(st[w.name])
	}
	rep.correct = true
	if traced {
		if err := r.tracedPass(rep, traceOut); err != nil {
			return nil, err
		}
	}
	for _, w := range ws {
		t := r.tally[w.name]
		if t.attempted == 0 || t.failed > 0 || len(st[w.name].timed) == 0 {
			rep.correct = false
		}
	}
	return rep, nil
}

// reference is the workload whose difference from w is w's recording cost:
// cell-traced's inputs without the recorder.
func reference(w *workload) *workload {
	if w.recorded {
		return cellDynamic
	}
	return nil
}

// tracedPass runs tracedOps traced ops of each workload, round-robin, plus
// its reference workload's, and derives the per-layer metrics. Each traced
// op sits between two untraced ops of the same workload, and the one after
// it is its pair in the tracing-overhead A/B: an op that follows another
// workload's runs on a heap that has to grow again, which on cell-traced
// cost 20 % more than the sink did.
func (r *runner) tracedPass(rep *report, traceOut string) error {
	set := slices.Clone(rep.workloads)
	for _, w := range rep.workloads {
		if ref := reference(w); ref != nil && !slices.Contains(set, ref) {
			set = append(set, ref)
			rep.stats[ref.name].heapLive = r.heapLive(ref)
		}
	}
	tr := &tracer{}
	for _, w := range set {
		tr.threads = append(tr.threads, w.name)
	}
	var sink eventSink
	for i := 0; i < tracedOps; i++ {
		for tid, w := range set {
			r.do(w, nil)
			ot, f, ok := r.tracedOp(w, tid, &sink, tr)
			_, base := r.do(w, nil)
			if ok {
				s := rep.stats[w.name]
				s.paired = append(s.paired, base)
				s.traced = append(s.traced, ot)
				s.last = f
			}
		}
	}
	if err := tr.writeChrome(traceOut); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	codecs, err := codecPass()
	if err != nil {
		fmt.Fprintln(r.log, "benchmark:", err)
		rep.correct = false
	}
	for _, w := range rep.workloads {
		var ref *stats
		if rw := reference(w); rw != nil {
			ref = rep.stats[rw.name]
		}
		rep.layer[w.name] = layerMetrics(w, rep.stats[w.name], ref, codecs)
		if rep.layer[w.name]["trace.unattributed_ns"] != 0 {
			rep.correct = false
		}
	}
	return nil
}

func endToEndMetrics(s *stats) map[string]float64 {
	n := float64(len(s.timed))
	pkts := float64(s.offered)
	var allocs, allocBytes float64
	for _, t := range s.timed {
		allocs += float64(t.allocs)
		allocBytes += float64(t.bytes)
	}
	inCal := func(get func(sample) int64) []float64 {
		return fieldF(s.timed, func(t sample) float64 { return float64(get(t)) / float64(t.cal) })
	}
	wall := inCal(func(t sample) int64 { return t.wall })
	return map[string]float64{
		"pkts_per_cal":        pkts / median(inCal(func(t sample) int64 { return t.run })),
		"op_cal_p50":          median(wall),
		"op_cal_p90":          quantile(wall, 0.9),
		"setup_s":             median(inCal(func(t sample) int64 { return t.setup })) * calSeconds,
		"heap_live_mb":        s.heapLive / 1e6,
		"allocs_per_pkt":      allocs / (n * pkts),
		"alloc_bytes_per_pkt": allocBytes / (n * pkts),
	}
}

func layerMetrics(w *workload, s, ref *stats, codecs map[string]codecCost) map[string]float64 {
	tm := func(get func(opTrace) int64) float64 { return median(field(s.traced, get)) }
	pkts := float64(s.offered)
	f := s.last
	m := map[string]float64{
		"facade.build_ms":     tm(func(t opTrace) int64 { return t.phase[mBuild] }) / 1e6,
		"facade.offer_ms":     tm(func(t opTrace) int64 { return t.phase[mOffer] }) / 1e6,
		"workload.gen_ms":     tm(func(t opTrace) int64 { return t.phase[mGen] }) / 1e6,
		"facade.fold_ms":      tm(func(t opTrace) int64 { return t.fold }) / 1e6,
		"sim.events_per_pkt":  float64(f.steps) / pkts,
		"sim.pushes_per_pkt":  float64(f.pushes) / pkts,
		"sim.cancels_per_pkt": float64(f.cancels) / pkts,
		"sim.pool_allocs":     float64(f.poolAllocs),
		"sim.queue_depth_max": float64(f.depthMax),
		"sched.srs":           float64(f.srs),
		"sched.grants":        float64(f.grants),
		"mac.cg_collisions":   float64(f.collisions),
		"phy.losses":          float64(f.phyLosses),
		"radio.misses":        float64(f.radioMisses),
		"pkt.delivered":       float64(f.delivered),
		"pkt.lost":            float64(f.lost),
		"obs.kpi_ms":          tm(func(t opTrace) int64 { return t.phase[mKPI] }) / 1e6,
		"obs.export_ms":       tm(func(t opTrace) int64 { return t.phase[mExport] }) / 1e6,
		"obs.export_mb":       float64(f.exportBytes) / 1e6,
		"obs.record_ms":       0,
		"obs.retained_mb":     0,
	}
	if ref != nil {
		refRun := median(field(ref.traced, func(t opTrace) int64 { return t.phase[mRun] }))
		m["obs.record_ms"] = (tm(func(t opTrace) int64 { return t.phase[mRun] }) - refRun) / 1e6
		m["obs.retained_mb"] = (s.heapLive - ref.heapLive) / 1e6
	}
	for l, name := range layerNames {
		m["node."+name+".busy_ms"] = tm(func(t opTrace) int64 { return t.busy[l] }) / 1e6
		if l != layerOther {
			m["node."+name+".ns_per_event"] = median(fieldF(s.traced, func(t opTrace) float64 {
				if t.count[l] == 0 {
					return 0
				}
				return float64(t.busy[l]) / float64(t.count[l])
			}))
		}
	}
	for _, c := range codecNames {
		m["codec."+c+"_ns"] = codecs[c].ns
		m["codec."+c+"_allocs"] = codecs[c].allocs
	}
	var gcs, pause float64
	for _, t := range s.timed {
		gcs += float64(t.gcs)
		pause += float64(t.pauseNs)
	}
	n := float64(len(s.timed))
	m["gc.cycles_per_op"] = gcs / n
	m["gc.pause_ms_per_op"] = pause / n / 1e6
	ratios := make([]float64, len(s.traced))
	for i, t := range s.traced {
		base := s.paired[i]
		ratios[i] = float64(t.wall) / float64(t.cal) / (float64(base.wall) / float64(base.cal))
	}
	m["trace.overhead_share"] = median(ratios) - 1
	var un int64
	for _, t := range s.traced {
		un += t.unattributed
	}
	m["trace.unattributed_ns"] = float64(un)
	return m
}

func field[T any](xs []T, get func(T) int64) []float64 {
	return fieldF(xs, func(x T) float64 { return float64(get(x)) })
}

func fieldF[T any](xs []T, get func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = get(x)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile: the smallest sample with at
// least q of the samples at or below it. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(float64(len(s))*q)) - 1
	return s[min(max(i, 0), len(s)-1)]
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values attaches units. A metric left undefined because every op failed
// reads 0; the result is then not correct anyway.
func values(ms map[string]float64, defs []metric) map[string]value {
	out := map[string]value{}
	for _, d := range defs {
		v := ms[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = value{v, d.unit}
	}
	return out
}

// print writes the human-readable table and, last, the JSON result line.
func (rep *report) print(w io.Writer, seed uint64, traced bool) {
	fmt.Fprintf(w, "urllcsim benchmark: seed %d, %s, %d CPUs, GOMAXPROCS %d\n",
		seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	attempted, failed := 0, 0
	for _, wl := range rep.workloads {
		s, t := rep.stats[wl.name], rep.tally[wl.name]
		fmt.Fprintf(w, "\n%s: %d packets and %.3f simulated s per op; %d timed ops; fail_share %d/%d\n",
			wl.name, s.offered, s.horizon.Seconds(), len(s.timed), t.failed, t.attempted)
		run := median(field(s.timed, func(t sample) int64 { return t.run })) / 1e9
		wall := field(s.timed, func(t sample) int64 { return t.wall })
		fmt.Fprintf(w, "  raw host time (unbounded): cal %.3f ms, setup %.3f ms, op p50 %.3f ms, p90 %.3f ms, %.0f pkts/s, %.2f sim s/s\n",
			median(field(s.timed, func(t sample) int64 { return t.cal }))/1e6,
			median(field(s.timed, func(t sample) int64 { return t.setup }))/1e6,
			median(wall)/1e6, quantile(wall, 0.9)/1e6, float64(s.offered)/run, s.horizon.Seconds()/run)
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-26s %16.6f %s\n", d.name, rep.e2e[wl.name][d.name], d.unit)
		}
		if traced {
			for _, d := range perLayer {
				fmt.Fprintf(w, "  %-26s %16.6f %s\n", d.name, rep.layer[wl.name][d.name], d.unit)
			}
		}
	}
	for _, t := range rep.tally {
		attempted += t.attempted
		failed += t.failed
	}
	defs, ms := endToEnd, rep.e2e
	if traced {
		defs, ms = perLayer, rep.layer
	}
	metrics := map[string]value{}
	for _, wl := range rep.workloads {
		for name, v := range values(ms[wl.name], defs) {
			if len(rep.workloads) > 1 {
				name = wl.name + "/" + name
			}
			metrics[name] = v
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // only plain numbers and strings
	}
	fmt.Fprintf(w, "\n%s\n", line)
}

// outFile is the -out format: every metric of every workload.
type outFile struct {
	Seed      uint64                      `json:"seed"`
	Workloads map[string]map[string]value `json:"workloads"`
}

func (rep *report) writeOut(path string, seed uint64) error {
	f := outFile{Seed: seed, Workloads: map[string]map[string]value{}}
	for _, wl := range rep.workloads {
		ms := values(rep.e2e[wl.name], endToEnd)
		if l, ok := rep.layer[wl.name]; ok {
			for k, v := range values(l, perLayer) {
				ms[k] = v
			}
		}
		f.Workloads[wl.name] = ms
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// benchmarkJSON is the part of BENCHMARK.json -compare reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, for each workload and end-to-end metric, B's change
// against A next to the metric's bound, and reports whether every change
// is within its bound.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) (bool, error) {
	var bj benchmarkJSON
	var a, b outFile
	for _, f := range []struct {
		path string
		v    any
	}{{benchPath, &bj}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return false, err
		}
	}
	if len(bj.EndToEnd) == 0 {
		return false, errors.New(benchPath + ": no end_to_end metrics")
	}
	names := make([]string, 0, len(a.Workloads))
	for _, wl := range workloads {
		if _, ok := a.Workloads[wl.name]; ok {
			names = append(names, wl.name)
		}
	}
	ok := len(names) > 0
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "B/A-1", "bound")
	for _, name := range names {
		for _, m := range bj.EndToEnd {
			va, okA := a.Workloads[name][m.Name]
			vb, okB := b.Workloads[name][m.Name]
			if !okA || !okB || va.Value == 0 {
				fmt.Fprintf(w, "%-15s %-20s missing or zero in A or B\n", name, m.Name)
				ok = false
				continue
			}
			delta := vb.Value/va.Value - 1
			verdict := "agree"
			if delta > m.Bound || delta < -m.Bound {
				verdict = "DISAGREE"
				ok = false
			}
			fmt.Fprintf(w, "%-15s %-20s %14.6g %14.6g %+7.2f%% %5.1f%% %s\n",
				name, m.Name, va.Value, vb.Value, 100*delta, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
