// Package obs is the observability layer of the simulator: structured
// per-packet spans, a metrics registry (counters, gauges, latency timings
// with slot-aligned snapshots), and exporters (JSONL, Chrome trace-event
// JSON for Perfetto, CSV).
//
// The paper's central artefact is a temporal breakdown of one packet's
// journey into protocol/processing/radio latency (Fig. 3, Table 2). obs
// holds that journey: every journey segment is a Span carrying the packet
// id, direction, stack layer and latency-source attribution (JourneyTable
// renders one packet's spans as the Fig. 3 text), and every
// system event of interest (slots scheduled, HARQ retransmissions, CRC
// failures, …) feeds a named counter.
//
// Cost discipline: a nil *Recorder is the disabled state. Every recording
// method is nil-safe and returns immediately, so model code calls
// s.obs.Count(...) unconditionally and the disabled path costs one
// comparison — no interface dispatch, no allocation (proven by
// BenchmarkTracingOverhead at the repository root).
package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"urllcsim/internal/core"
	"urllcsim/internal/sim"
)

// Layer identifies where in the stack a span happened.
type Layer uint8

const (
	LayerApp Layer = iota
	LayerSDAP
	LayerPDCP
	LayerRLC
	LayerMAC
	LayerPHY
	LayerBus   // SDR front-haul bus (sample submission / reception)
	LayerAir   // transport block on air
	LayerSched // scheduler decisions and protocol waits
	LayerCore  // gNB↔UPF core-network forwarding
	LayerStack // a stretch spanning several layers (e.g. SDAP↓+PDCP↓+RLC↓)
	numLayers
)

var layerNames = [numLayers]string{
	"app", "SDAP", "PDCP", "RLC", "MAC", "PHY",
	"bus", "air", "sched", "core", "stack",
}

func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return "layer?"
}

// ParseLayer is the inverse of Layer.String, used when re-ingesting exported
// traces. Unknown names report ok=false.
func ParseLayer(s string) (Layer, bool) {
	for i, n := range layerNames {
		if n == s {
			return Layer(i), true
		}
	}
	return 0, false
}

// Dir is a packet direction.
type Dir uint8

const (
	DirNone Dir = iota
	DirUL
	DirDL
)

func (d Dir) String() string {
	switch d {
	case DirUL:
		return "UL"
	case DirDL:
		return "DL"
	default:
		return "-"
	}
}

// ParseDir is the inverse of Dir.String. Unknown names report ok=false.
func ParseDir(s string) (Dir, bool) {
	switch s {
	case "UL":
		return DirUL, true
	case "DL":
		return DirDL, true
	case "-":
		return DirNone, true
	default:
		return DirNone, false
	}
}

// Span is one timed step of a packet's journey (a circled step of the
// paper's Fig. 3) charged to one latency source, with the packet identity
// and stack position. A packet's spans are its only step-by-step journey
// record; JourneyTable renders them as the Fig. 3 text. Spans of one
// packet partition its one-way latency exactly (no gaps, no overlaps) on
// first-attempt deliveries; TestSpanPartition at the repository root holds
// this property across directions, access modes and seeds.
//
// The three one-byte fields sit together so a Span packs into 48 bytes;
// TestSpanSize pins it.
type Span struct {
	Packet int
	Dir    Dir
	Layer  Layer
	Source core.Source
	Step   string
	Start  sim.Time
	Dur    sim.Duration
}

// End returns the instant the span finishes.
func (s Span) End() sim.Time { return s.Start.Add(s.Dur) }

// JourneyTable renders one packet's spans as the Fig. 3 journey table:
// every step in chronological order (a stable sort by Start, so steps that
// start together keep recording order), then the total and its split across
// the three latency sources.
func JourneyTable(spans []Span) string {
	steps := slices.Clone(spans)
	slices.SortStableFunc(steps, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
	var by core.Tally
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %-11s %12s %12s\n", "step", "source", "start[µs]", "dur[µs]")
	for _, s := range steps {
		by.Add(s.Source, s.Dur)
		fmt.Fprintf(&sb, "%-28s %-11s %12.2f %12.2f\n",
			s.Step, s.Source, s.Start.Micros(), float64(s.Dur)/1000)
	}
	fmt.Fprintf(&sb, "%-28s %-11s %12s %12.2f\n", "TOTAL", "", "", float64(by.Total())/1000)
	for _, src := range core.Sources {
		fmt.Fprintf(&sb, "  %-26s %-11s %12s %12.2f\n", "", src, "", float64(by[src])/1000)
	}
	return sb.String()
}

// Outcome is the resolution of one offered packet: whether it was delivered,
// its one-way latency and how many transmission attempts it took. Spans
// describe the journey; the Outcome is the verdict — exported alongside the
// spans so offline analyzers can audit deadlines without re-deriving
// delivery state from the span stream (retransmitted packets have
// overlapping spans, so span sums alone cannot reconstruct it).
type Outcome struct {
	Packet    int
	Dir       Dir
	Delivered bool
	Latency   sim.Duration
	Attempts  int
	End       sim.Time // sim instant the verdict landed (wire: end_us; 0 in pre-meta traces)
	UE        int      // logical UE the packet belongs to (wire: ue; 0 in older traces)
}

// EdgeKind names one causal transition of a packet's journey: the discrete
// decisions — scheduler, HARQ, SR/grant handshake — that spans alone cannot
// express, because a span says "this took 212 µs" while an edge says "because
// the SR had to wait 2 slots for a UL opportunity". The flight recorder
// (internal/obs/flight) consumes edges to reconstruct why a deadline was
// missed.
type EdgeKind uint8

const (
	EdgeSRSent       EdgeKind = iota // UE sent the scheduling request; Ref = instant the packet was ready, Arg = ns waited for the UL opportunity
	EdgeSRReceived                   // gNB finished decoding the SR
	EdgeGrantIssued                  // scheduler issued the UL grant; Ref = granted slot start, Arg = ns since SR reception
	EdgeGrantDecoded                 // UE decoded the grant on DL control; Ref = granted slot start
	EdgeEnqueued                     // DL packet entered the gNB RLC queue; Arg = queue depth after
	EdgeSchedTake                    // scheduler consumed the packet from the RLC queue; Ref = target DL slot, Arg = ns queued
	EdgeTxStart                      // transport block went on air; Ref = slot start, Arg = attempt number (1-based)
	EdgeCRCFail                      // transport block lost on air (HARQ NACK); Arg = attempt number
	EdgeHARQRetx                     // retransmission re-armed after a NACK; Arg = next attempt number
	EdgeRadioMiss                    // slot lost: radio not ready when it started (§4); Ref = missed slot start, Arg = ns late
	numEdgeKinds
)

var edgeKindNames = [numEdgeKinds]string{
	"sr_sent", "sr_received", "grant_issued", "grant_decoded",
	"enqueued", "sched_take", "tx_start", "crc_fail", "harq_retx", "radio_miss",
}

func (k EdgeKind) String() string {
	if int(k) < len(edgeKindNames) {
		return edgeKindNames[k]
	}
	return "edge?"
}

// ParseEdgeKind is the inverse of EdgeKind.String. Unknown names report
// ok=false.
func ParseEdgeKind(s string) (EdgeKind, bool) {
	for i, n := range edgeKindNames {
		if n == s {
			return EdgeKind(i), true
		}
	}
	return 0, false
}

// Edge is one causal transition of one packet's journey. Edges are not
// retained by the Recorder — they flow through to the attached Tap (the
// flight recorder) and cost nothing when no tap is mounted, so model code
// stamps them unconditionally.
type Edge struct {
	Packet int
	Dir    Dir
	Kind   EdgeKind
	Time   sim.Time // when the transition happened
	Ref    sim.Time // related instant (slot boundary, symbol start); 0 when unused
	Arg    int64    // kind-specific detail (ns waited, attempt #, queue depth)
}

// Tap receives every span, outcome and edge as it is recorded — the
// streaming half of the observability layer. A flight recorder mounts here
// to keep bounded causal state instead of the Recorder's full log; a
// watchdog mounts here to run streaming SLO estimators. Taps run inside the
// simulation's thread of control and must not block.
type Tap interface {
	TapSpan(Span)
	TapOutcome(Outcome)
	TapEdge(Edge)
}

// Taps fans the stream out to several taps in order (e.g. a watchdog plus a
// flight recorder).
type Taps []Tap

func (ts Taps) TapSpan(s Span) {
	for _, t := range ts {
		t.TapSpan(s)
	}
}

func (ts Taps) TapOutcome(o Outcome) {
	for _, t := range ts {
		t.TapOutcome(o)
	}
}

func (ts Taps) TapEdge(e Edge) {
	for _, t := range ts {
		t.TapEdge(e)
	}
}

// Recorder collects spans, outcomes and metrics for one simulation run. The
// zero value is usable; a nil Recorder is the disabled state and all methods
// are nil-safe no-ops.
//
// Recorder is not safe for concurrent use — like the engine it observes, a
// simulation is a single logical thread of control. The one sanctioned
// exception is a live telemetry server (see Serve): attaching one installs a
// mutex around the registry-touching methods so scrapes can run concurrently
// with the simulation; span/outcome logs stay unsynchronised and are
// never read live.
type Recorder struct {
	spans    Log[Span]
	outcomes Log[Outcome]
	reg      *Registry

	// tap, when non-nil, receives every span, outcome and edge as it is
	// recorded (see Tap). One pointer comparison when absent.
	tap Tap

	// live guards the metrics registry when a telemetry server is attached.
	// Nil in the default single-threaded case: every registry-touching
	// method then pays exactly one pointer comparison, keeping the
	// BenchmarkTracingOverhead gate intact.
	live *sync.Mutex

	// discardSpans / discardOutcomes stop the recorder from retaining the
	// span/outcome logs (taps still see every record). This is the
	// bounded-memory mode: with a flight recorder tapped and retention off,
	// observing a run costs O(ring) memory regardless of run length.
	discardSpans    bool
	discardOutcomes bool

	// slotLedger, when enabled, retains one SlotRecord per scheduling tick
	// (see slots.go). Off by default: the node layer checks
	// SlotLedgerEnabled before assembling a record, so unledgered runs pay
	// one bool comparison per tick.
	slotLedger bool
	slots      []SlotRecord
	takes      takeStore // the slot records' PerUE takes

	// sampler gates span *retention* by packet identity (see
	// sample.go). Off by default; outcomes and the tap stream are never
	// sampled.
	sampler samplerState

	// meter, when non-nil, measures the wall cost and record volume of
	// every recording method — the observer-tax self-accounting consumed by
	// internal/obs/prof (see meter.go). One pointer comparison when off.
	meter *meter
}

// NewRecorder returns an enabled recorder with a fresh metrics registry.
func NewRecorder() *Recorder {
	return &Recorder{reg: NewRegistry()}
}

// Reset empties the recorder in place while keeping every piece of storage
// it has grown — span/outcome blocks, slot takes, histogram pages, the
// snapshot arena, instrument registrations and family rows.
// A reset recorder re-observing the same workload behaves byte-identically
// to a fresh one and allocates nothing once its storage has warmed up: the
// steady-state contract TestResetSteadyZeroAlloc pins, and the reuse
// pattern for benchmark loops and repeated-scenario services.
//
// Reset invalidates everything previously returned by Spans, Outcomes,
// Slots and Snapshots: those logs and slices alias the recycled storage.
// Debug builds (-tags obsdebug) poison the recycled records so a retainer
// fails loudly; see poison_debug.go. Instruments and family rows keep their
// registrations (at value zero), so Reset is intended for re-running the
// same scenario — a different workload should use a fresh recorder.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.withLive(func() {
		r.spans.reset(poisonSpans)
		r.outcomes.reset(poisonOutcomes)
		poisonSlots(r.slots)
		r.slots = r.slots[:0]
		r.takes.reset(poisonTakes)
		r.reg.Reset()
		if r.meter != nil {
			*r.meter = meter{}
		}
	})
}

// SetTap mounts a streaming consumer for spans, outcomes and edges. Pass a
// Taps slice to fan out to several. Call before the simulation starts.
func (r *Recorder) SetTap(t Tap) {
	if r == nil {
		return
	}
	r.tap = t
}

// SetRetention toggles whether the recorder retains its span and outcome
// logs (both default to true). With retention off, spans and outcomes flow
// only to the tap and the metrics registry — the configuration long runs use
// so memory stays bounded by the flight recorder's ring rather than the run
// length. Exporters that need the full log (WriteJSONL, WriteChromeTrace)
// will see empty streams for whatever was discarded.
func (r *Recorder) SetRetention(spans, outcomes bool) {
	if r == nil {
		return
	}
	r.discardSpans = !spans
	r.discardOutcomes = !outcomes
}

// Enabled reports whether the recorder is collecting (i.e. non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Metrics returns the recorder's registry (nil for a disabled recorder).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// PacketSpan records one packet-journey span from its fields. The tap sees
// every span; retention is subject to SetRetention and the sampler (see
// sample.go).
func (r *Recorder) PacketSpan(packet int, dir Dir, layer Layer, step string,
	src core.Source, start sim.Time, dur sim.Duration) {
	if r == nil {
		return
	}
	if r.meter != nil {
		defer r.meter.add(meterSpan, time.Now())
	}
	s := Span{
		Packet: packet, Dir: dir, Layer: layer, Step: step,
		Source: src, Start: start, Dur: dur,
	}
	if r.tap != nil {
		r.tap.TapSpan(s)
	}
	if !r.discardSpans && r.keepPacket(packet) {
		r.spans.Append(s)
	}
}

// SpillSpans bounds the retained span log at one block: each time the
// records held fill a block, they are handed to spill block by block (in
// recording order) and the block is recycled, so span memory stays flat
// whatever the run length — the streaming half of the pipeline, which
// StreamJSONL mounts to write span records during the run. The spill
// consumer must fully process a block before returning: the slice aliases
// storage the recorder overwrites next (debug builds poison it — see
// poison_debug.go). Spans() afterwards returns only the unspilled tail.
// Pass a nil spill to unmount.
func (r *Recorder) SpillSpans(spill func([]Span)) {
	if r == nil {
		return
	}
	if spill == nil {
		r.spans.spill = nil
		return
	}
	r.spans.spill = func(b []Span) {
		spill(b)
		poisonSpans(b)
	}
}

// Edge records one causal transition. Edges are never retained by the
// recorder — they exist for the tap (flight recorder); with no tap mounted
// this is one pointer comparison.
func (r *Recorder) Edge(e Edge) {
	if r == nil || r.tap == nil {
		return
	}
	r.tap.TapEdge(e)
}

// enableLive installs the registry mutex. Must be called before the
// simulation starts and before any concurrent reader — the pointer write is
// unsynchronised by design (the fast path cannot afford an atomic).
func (r *Recorder) enableLive() {
	if r == nil || r.live != nil {
		return
	}
	r.live = &sync.Mutex{}
}

// withLive runs f under the live mutex when one is installed. Exposition
// handlers use it to read the registry consistently mid-run.
func (r *Recorder) withLive(f func()) {
	if r == nil {
		f()
		return
	}
	if r.live != nil {
		r.live.Lock()
		defer r.live.Unlock()
	}
	f()
}

// begin opens the one metered, live-locked section every registry write
// (the named methods, the handles, SlotSnapshot) runs in: it starts the
// meter clock and takes the live mutex, each only when installed, and
// inlines to one two-field check when neither is. end closes the section
// and charges one record of cat. PacketSpan and Outcome never touch the
// registry, so they skip the lock and keep their own meter defers.
func (r *Recorder) begin() time.Time {
	if r.meter == nil && r.live == nil {
		return time.Time{}
	}
	return r.openSection()
}

func (r *Recorder) end(cat meterCat, t0 time.Time) {
	if r.meter == nil && r.live == nil {
		return
	}
	r.closeSection(cat, t0)
}

// openSection and closeSection are the out-of-line halves of begin and end.
func (r *Recorder) openSection() (t0 time.Time) {
	if r.meter != nil {
		t0 = time.Now()
	}
	if r.live != nil {
		r.live.Lock()
	}
	return t0
}

func (r *Recorder) closeSection(cat meterCat, t0 time.Time) {
	if r.live != nil {
		r.live.Unlock()
	}
	if r.meter != nil {
		r.meter.add(cat, t0)
	}
}

// Count adds delta to the named counter. No-op when disabled. The named
// methods serve names built at run time; hot paths use handles.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	t0 := r.begin()
	r.reg.Counter(name).Add(delta)
	r.end(meterMetric, t0)
}

// SetGauge sets the named gauge. No-op when disabled.
func (r *Recorder) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	t0 := r.begin()
	r.reg.Gauge(name).Set(v)
	r.end(meterMetric, t0)
}

// SlotSnapshot captures the state of every counter and gauge at a slot
// boundary. Called once per scheduling tick by the node layer, so the
// snapshot series is slot-aligned by construction.
func (r *Recorder) SlotSnapshot(t sim.Time) {
	if r == nil {
		return
	}
	t0 := r.begin()
	r.reg.Snapshot(t)
	r.end(meterSnapshot, t0)
}

// Outcome records the resolution of one packet. Outcomes are never sampled:
// the deadline audit derives its counts and tail percentiles from them, and
// those must stay exact at any span sample rate.
func (r *Recorder) Outcome(o Outcome) {
	if r == nil {
		return
	}
	if r.meter != nil {
		defer r.meter.add(meterOutcome, time.Now())
	}
	if r.tap != nil {
		r.tap.TapOutcome(o)
	}
	if !r.discardOutcomes {
		r.outcomes.Append(o)
	}
}

// Outcomes returns the recorded packet outcomes in resolution order. The
// log aliases the recorder's own storage.
func (r *Recorder) Outcomes() Log[Outcome] {
	if r == nil {
		return Log[Outcome]{}
	}
	return r.outcomes
}

// Spans returns the recorded spans in recording order (chronological per
// packet). The log aliases the recorder's own storage.
func (r *Recorder) Spans() Log[Span] {
	if r == nil {
		return Log[Span]{}
	}
	return r.spans
}

// PacketSpans returns the spans of one packet, in recording order.
func (r *Recorder) PacketSpans(packet int) []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for s := range r.spans.All() {
		if s.Packet == packet {
			out = append(out, s)
		}
	}
	return out
}

// TracerFunc adapts a plain func(Time, string) engine hook into a
// structured sim.EngineSink:
//
//	eng.Sink = obs.TracerFunc(func(t sim.Time, name string) { … })
type TracerFunc func(t sim.Time, name string)

// EngineEvent implements sim.EngineSink.
func (f TracerFunc) EngineEvent(t sim.Time, name string) { f(t, name) }
