// Package flight is the tail-forensics flight recorder: bounded-memory
// causal capture of the packets that matter.
//
// The paper's central question — can 5G hold 99.999 % reliability inside a
// 0.5 ms budget? — makes the interesting events literally one-in-100k. At
// that scale retaining every span (what obs.Recorder does) is unaffordable,
// while dropping observability loses exactly the packets the analysis is
// about. The flight recorder resolves the tension the way avionics do: keep
// a short causal history for every packet currently in flight, and the
// moment a packet resolves, either promote its history to a durable exemplar
// (deadline missed, packet lost, or among the top-K worst latencies seen) or
// discard it. Memory is O(ring): bounded by the in-flight window and K, never
// by the run length.
//
// The recorder mounts as an obs.Tap on an obs.Recorder and consumes three
// streams: spans (the timed steps of each journey), causal edges (the
// discrete decisions — SR sent after a 2-slot wait, grant issued, HARQ NACK,
// radio miss — that explain *why* the steps took what they took) and
// outcomes (the verdict that triggers promote-or-discard). Promoted
// exemplars carry the packet's exactly-ordered causal chain and render as a
// forensic narrative ("SR delayed 2 slots → HARQ NACK ×2 → budget blown in
// radio"), a schema-versioned JSONL `flight` record, or a focused Perfetto
// trace.
//
// Attaching a recorder changes no simulation results: it only observes, and
// every decision it makes (promotion, eviction, top-K membership) is a pure
// function of the deterministic observation stream — so exemplar sets are
// bit-identical run to run and merge deterministically across sweep shards
// (MergeSets).
package flight

import (
	"sort"

	"urllcsim/internal/core"
	"urllcsim/internal/obs"
	"urllcsim/internal/sim"
)

// Schema versions the JSONL `flight` record; bump on any breaking field
// change.
const Schema = "urllcsim-flight/v1"

// Default ring geometry. MaxTracked bounds how many unresolved packets keep
// causal history at once; MaxChain bounds the history of one packet (a
// pathological requeue loop cannot grow a chain without bound — later
// entries are dropped and counted).
const (
	DefaultTopK       = 8
	DefaultMaxTracked = 4096
	DefaultMaxChain   = 96
)

// Config parameterises a Recorder.
type Config struct {
	// Deadline is the one-way latency budget: delivered packets over it and
	// all lost packets are promoted unconditionally. Zero disables the
	// budget verdict (only losses and the top-K worst are promoted).
	Deadline sim.Duration

	// TopK is how many worst-latency delivered-in-budget exemplars are kept
	// per direction — the "what does our own tail look like" set. 0 → 8.
	TopK int

	// MaxTracked bounds concurrently tracked in-flight packets; the oldest
	// is evicted (and counted) when the ring is full. 0 → 4096.
	MaxTracked int

	// MaxChain bounds causal entries retained per packet; entries past the
	// cap are dropped and counted in the exemplar. 0 → 96.
	MaxChain int

	// Shard labels every exemplar with the sweep shard that produced it, so
	// merged sets stay traceable to their replica. 0 for single runs.
	Shard int
}

// ChainStep is one entry of a packet's reconstructed causal chain: either a
// timed span or an instantaneous causal edge, in exact journey order.
type ChainStep struct {
	Time   sim.Time
	IsEdge bool

	// Span fields (IsEdge false).
	Step   string
	Layer  obs.Layer
	Source core.Source
	Dur    sim.Duration

	// Edge fields (IsEdge true).
	Kind obs.EdgeKind
	Ref  sim.Time
	Arg  int64
}

// Promotion reasons, in severity order: a packet promoted for loss is never
// re-labelled worst_latency.
const (
	ReasonLoss         = "loss"          // never delivered
	ReasonDeadlineMiss = "deadline_miss" // delivered after the budget
	ReasonWorstLatency = "worst_latency" // in budget, but among the top-K slowest
)

// Exemplar is one promoted packet: the verdict plus the full causal chain
// that led to it.
type Exemplar struct {
	Shard     int
	Packet    int
	Dir       obs.Dir
	Reason    string
	Delivered bool
	Latency   sim.Duration
	Attempts  int

	// Label names the run (or sweep grid point) that produced the exemplar.
	// Empty in-process; stamped by WriteJSONL and recovered on read, so one
	// file can carry several merged sets and stay attributable.
	Label string

	// Chain is the causal history in exact (time, recording) order.
	// ChainDropped counts entries lost to the MaxChain cap; Untracked marks
	// an exemplar whose history was evicted from the ring before resolution
	// (the verdict is still exact, the chain is just empty).
	Chain        []ChainStep
	ChainDropped int
	Untracked    bool
}

// Stats reports the recorder's bookkeeping — including the memory
// high-water marks the bounded-memory contract is tested against.
type Stats struct {
	Tracked   int // packets that ever entered the ring
	Resolved  int // outcomes seen
	Promoted  int // exemplars kept (misses + losses + current top-K)
	Evicted   int // tracks dropped because the ring was full
	Untracked int // outcomes whose history was evicted before resolution

	// MaxLiveTracked / MaxLiveEntries are high-water marks of retained
	// state: tracked packets and total chain entries across them. For a
	// fixed Config these are bounded by MaxTracked and
	// MaxTracked×MaxChain + promoted state regardless of run length.
	MaxLiveTracked int
	MaxLiveEntries int
}

// track is the in-ring causal history of one unresolved packet.
type track struct {
	id      int
	dir     obs.Dir
	chain   []ChainStep
	dropped int
}

// Recorder is the flight recorder. Mount it with
// rec.SetTap(flightRecorder) — or compose obs.Taps{watchdog, flightRecorder}
// — before the simulation starts. Not safe for concurrent use, like the
// engine it observes.
type Recorder struct {
	cfg Config

	tracks map[int]*track
	fifo   []int // insertion order, for ring eviction
	free   []*track

	misses []*Exemplar             // losses + deadline misses, resolution order
	worst  map[obs.Dir][]*Exemplar // per-direction top-K, kept sorted slowest-first

	liveEntries int
	stats       Stats
}

// New returns a flight recorder with the given configuration.
func New(cfg Config) *Recorder {
	if cfg.TopK <= 0 {
		cfg.TopK = DefaultTopK
	}
	if cfg.MaxTracked <= 0 {
		cfg.MaxTracked = DefaultMaxTracked
	}
	if cfg.MaxChain <= 0 {
		cfg.MaxChain = DefaultMaxChain
	}
	return &Recorder{
		cfg:    cfg,
		tracks: make(map[int]*track, cfg.MaxTracked),
		worst:  map[obs.Dir][]*Exemplar{},
	}
}

// obtain returns the track for packet id, creating (and ring-evicting) as
// needed.
func (r *Recorder) obtain(id int, dir obs.Dir) *track {
	if t, ok := r.tracks[id]; ok {
		if t.dir == obs.DirNone {
			t.dir = dir
		}
		return t
	}
	if len(r.fifo) >= r.cfg.MaxTracked {
		// Ring full: evict the oldest unresolved packet's history.
		oldest := r.fifo[0]
		r.fifo = r.fifo[1:]
		if t, ok := r.tracks[oldest]; ok {
			delete(r.tracks, oldest)
			r.release(t)
			r.stats.Evicted++
		}
	}
	var t *track
	if n := len(r.free); n > 0 {
		t = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		t = &track{chain: make([]ChainStep, 0, 16)}
	}
	t.id, t.dir, t.dropped = id, dir, 0
	t.chain = t.chain[:0]
	r.tracks[id] = t
	r.fifo = append(r.fifo, id)
	r.stats.Tracked++
	if n := len(r.tracks); n > r.stats.MaxLiveTracked {
		r.stats.MaxLiveTracked = n
	}
	return t
}

// release returns a track's storage to the freelist.
func (r *Recorder) release(t *track) {
	r.liveEntries -= len(t.chain)
	t.chain = t.chain[:0]
	r.free = append(r.free, t)
}

// push appends one chain step, honouring the per-packet cap.
func (r *Recorder) push(t *track, cs ChainStep) {
	if len(t.chain) >= r.cfg.MaxChain {
		t.dropped++
		return
	}
	t.chain = append(t.chain, cs)
	r.liveEntries++
	if r.liveEntries > r.stats.MaxLiveEntries {
		r.stats.MaxLiveEntries = r.liveEntries
	}
}

// TapSpan implements obs.Tap.
func (r *Recorder) TapSpan(s obs.Span) {
	t := r.obtain(s.Packet, s.Dir)
	r.push(t, ChainStep{
		Time: s.Start, Step: s.Step, Layer: s.Layer, Source: s.Source, Dur: s.Dur,
	})
}

// TapEdge implements obs.Tap.
func (r *Recorder) TapEdge(e obs.Edge) {
	t := r.obtain(e.Packet, e.Dir)
	r.push(t, ChainStep{
		Time: e.Time, IsEdge: true, Kind: e.Kind, Ref: e.Ref, Arg: e.Arg,
	})
}

// TapOutcome implements obs.Tap: the promote-or-discard decision point.
func (r *Recorder) TapOutcome(o obs.Outcome) {
	r.stats.Resolved++
	t, tracked := r.tracks[o.Packet]
	if tracked {
		delete(r.tracks, o.Packet)
		// Drop the id from the fifo lazily: scan from the front only when
		// the head is already resolved. Cheaper than O(n) removal and keeps
		// eviction order correct because resolved heads are skipped.
		for len(r.fifo) > 0 {
			if _, live := r.tracks[r.fifo[0]]; live {
				break
			}
			r.fifo = r.fifo[1:]
		}
	} else {
		r.stats.Untracked++
	}

	switch {
	case !o.Delivered:
		r.promoteMiss(o, t, ReasonLoss)
	case r.cfg.Deadline > 0 && o.Latency > r.cfg.Deadline:
		r.promoteMiss(o, t, ReasonDeadlineMiss)
	default:
		r.considerWorst(o, t)
	}
	if t != nil {
		r.release(t)
	}
}

// exemplar builds the durable record from a resolving packet.
func (r *Recorder) exemplar(o obs.Outcome, t *track, reason string) *Exemplar {
	ex := &Exemplar{
		Shard: r.cfg.Shard, Packet: o.Packet, Dir: o.Dir, Reason: reason,
		Delivered: o.Delivered, Latency: o.Latency, Attempts: o.Attempts,
		Untracked: t == nil,
	}
	if t != nil {
		ex.Chain = append([]ChainStep(nil), t.chain...)
		ex.ChainDropped = t.dropped
		// Exact journey order: spans are recorded when their start time is
		// known, which can precede recording order; sort by start time with
		// the recording order as a stable tiebreak.
		sort.SliceStable(ex.Chain, func(i, j int) bool {
			return ex.Chain[i].Time < ex.Chain[j].Time
		})
	}
	r.stats.Promoted++
	return ex
}

func (r *Recorder) promoteMiss(o obs.Outcome, t *track, reason string) {
	r.misses = append(r.misses, r.exemplar(o, t, reason))
}

// considerWorst maintains the per-direction top-K worst-latency set.
// Membership is deterministic: higher latency wins, and on exact ties the
// earlier (lower-id) packet is kept — so the set is a pure function of the
// outcome stream.
func (r *Recorder) considerWorst(o obs.Outcome, t *track) {
	ws := r.worst[o.Dir]
	if len(ws) >= r.cfg.TopK {
		min := ws[len(ws)-1]
		if o.Latency <= min.Latency {
			return
		}
		ws = ws[:len(ws)-1]
		r.stats.Promoted--
	}
	ex := r.exemplar(o, t, ReasonWorstLatency)
	// Insert keeping slowest-first order; ties keep the earlier packet first.
	pos := sort.Search(len(ws), func(i int) bool {
		if ws[i].Latency != ex.Latency {
			return ws[i].Latency < ex.Latency
		}
		return ws[i].Packet > ex.Packet
	})
	ws = append(ws, nil)
	copy(ws[pos+1:], ws[pos:])
	ws[pos] = ex
	r.worst[o.Dir] = ws
}

// Stats returns the recorder's bookkeeping counters.
func (r *Recorder) Stats() Stats { return r.stats }

// Set is the durable product of a run (or a merge of runs): every promoted
// exemplar plus the selection parameters that produced it.
type Set struct {
	Deadline sim.Duration
	TopK     int

	// Misses holds losses and deadline misses in resolution order; Worst
	// holds the per-direction top-K in slowest-first order.
	Misses []*Exemplar
	Worst  map[obs.Dir][]*Exemplar
}

// Set returns the promoted exemplars. The returned structure shares the
// recorder's exemplars; call after the run.
func (r *Recorder) Set() *Set {
	return &Set{
		Deadline: r.cfg.Deadline,
		TopK:     r.cfg.TopK,
		Misses:   r.misses,
		Worst:    r.worst,
	}
}

// Exemplars returns every exemplar of the set in a deterministic render
// order: misses in resolution order, then per-direction worst (UL first)
// slowest-first.
func (s *Set) Exemplars() []*Exemplar {
	out := append([]*Exemplar(nil), s.Misses...)
	for _, dir := range []obs.Dir{obs.DirNone, obs.DirUL, obs.DirDL} {
		out = append(out, s.Worst[dir]...)
	}
	return out
}

// MergeSets folds shard sets into one in shard order: all misses concatenate
// (they are all kept, so order is cosmetic but fixed), and the global
// per-direction top-K re-selects over the union of shard top-Ks — exact,
// because a global top-K member must be in its own shard's top-K. The result
// is a pure function of the shard sets in the given order, so a sweep's
// merged flight set is bit-identical for any worker count.
func MergeSets(deadline sim.Duration, topK int, shards ...*Set) *Set {
	if topK <= 0 {
		topK = DefaultTopK
	}
	out := &Set{Deadline: deadline, TopK: topK, Worst: map[obs.Dir][]*Exemplar{}}
	for _, s := range shards {
		if s == nil {
			continue
		}
		out.Misses = append(out.Misses, s.Misses...)
		for dir, ws := range s.Worst {
			out.Worst[dir] = append(out.Worst[dir], ws...)
		}
	}
	for dir, ws := range out.Worst {
		sort.SliceStable(ws, func(i, j int) bool {
			if ws[i].Latency != ws[j].Latency {
				return ws[i].Latency > ws[j].Latency
			}
			if ws[i].Shard != ws[j].Shard {
				return ws[i].Shard < ws[j].Shard
			}
			return ws[i].Packet < ws[j].Packet
		})
		if len(ws) > topK {
			ws = ws[:topK]
		}
		out.Worst[dir] = ws
	}
	return out
}
