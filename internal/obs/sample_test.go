package obs

import (
	"math"
	"testing"

	"urllcsim/internal/core"
	"urllcsim/internal/sim"
)

// keepSet returns the admitted packet ids in [0, n) for one sampler config.
func keepSet(rate float64, seed uint64, n int) map[int]bool {
	r := NewRecorder()
	r.SetSampling(rate, seed)
	out := map[int]bool{}
	for id := 0; id < n; id++ {
		if r.keepPacket(id) {
			out[id] = true
		}
	}
	return out
}

// TestSamplingDeterministic pins the admission contract: the verdict is a
// pure function of (rate, seed, packet id) — no recorder state, no call
// order, no dependence on what else was recorded. This is what makes sampled
// sweep output worker-count-invariant.
func TestSamplingDeterministic(t *testing.T) {
	const n = 4096
	a := keepSet(0.25, 7, n)
	b := keepSet(0.25, 7, n)
	if len(a) == 0 || len(a) == n {
		t.Fatalf("degenerate admit set: %d of %d", len(a), n)
	}
	for id := 0; id < n; id++ {
		if a[id] != b[id] {
			t.Fatalf("packet %d: verdict differs between identical samplers", id)
		}
	}
	c := keepSet(0.25, 8, n)
	same := 0
	for id := range a {
		if c[id] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seed change did not move the admitted subset")
	}
}

// TestSamplingSubset: raising the rate only ever adds packets — the admit
// threshold moves, the hash does not. A trace sampled at 1 % is a strict
// subset of the same run sampled at 10 %.
func TestSamplingSubset(t *testing.T) {
	const n, seed = 8192, 3
	lo, mid, hi := keepSet(0.01, seed, n), keepSet(0.1, seed, n), keepSet(0.5, seed, n)
	if !(len(lo) < len(mid) && len(mid) < len(hi)) {
		t.Fatalf("admit counts not increasing: %d, %d, %d", len(lo), len(mid), len(hi))
	}
	for id := range lo {
		if !mid[id] {
			t.Fatalf("packet %d admitted at 1%% but not at 10%%", id)
		}
	}
	for id := range mid {
		if !hi[id] {
			t.Fatalf("packet %d admitted at 10%% but not at 50%%", id)
		}
	}
}

// TestSamplingAdmittedFraction: the admitted share tracks the configured
// rate (splitmix64 is uniform over uint64).
func TestSamplingAdmittedFraction(t *testing.T) {
	const n = 1 << 16
	for _, rate := range []float64{0.1, 0.5, 0.9} {
		got := float64(len(keepSet(rate, 1, n))) / n
		if math.Abs(got-rate) > 0.02 {
			t.Fatalf("rate %.2f admitted %.4f of %d ids", rate, got, n)
		}
	}
}

// TestSamplingEdges pins the off/degenerate configurations.
func TestSamplingEdges(t *testing.T) {
	var nilRec *Recorder
	if nilRec.SampleRate() != 1 {
		t.Fatalf("nil recorder SampleRate = %v, want 1", nilRec.SampleRate())
	}
	r := NewRecorder()
	if r.SampleRate() != 1 {
		t.Fatalf("fresh recorder SampleRate = %v, want 1", r.SampleRate())
	}
	for _, rate := range []float64{1, 2, math.NaN()} {
		r.SetSampling(rate, 1)
		if r.SampleRate() != 1 {
			t.Fatalf("SetSampling(%v) left SampleRate = %v, want 1 (off)", rate, r.SampleRate())
		}
		if !r.keepPacket(12345) {
			t.Fatalf("SetSampling(%v) dropped a packet", rate)
		}
	}
	r.SetSampling(-0.5, 1) // clamps to 0: nothing packet-scoped kept
	if r.SampleRate() != 0 {
		t.Fatalf("SetSampling(-0.5) SampleRate = %v, want 0", r.SampleRate())
	}
	if r.keepPacket(42) {
		t.Fatal("rate 0 admitted a packet")
	}
	if !r.keepPacket(-1) {
		t.Fatal("rate 0 dropped a non-packet record (id < 0 must always pass)")
	}
}

// TestSamplingGatesRetentionOnly: the sampler gates span retention and
// nothing else — outcomes and the tap stream stay complete, which is what keeps the deadline audit and the flight
// recorder exact at any rate.
func TestSamplingGatesRetentionOnly(t *testing.T) {
	r := NewRecorder()
	r.SetSampling(0, 99) // drop every packet-scoped record
	tap := &captureTap{}
	r.SetTap(tap)
	const n = 50
	for id := 0; id < n; id++ {
		r.PacketSpan(id, DirUL, LayerMAC, "tx", core.Protocol, sim.Time(id), sim.Microsecond)
		r.Outcome(Outcome{Packet: id, Delivered: true, Latency: sim.Microsecond})
	}
	if got := r.Spans().Len(); got != 0 {
		t.Fatalf("retained %d spans at rate 0", got)
	}
	if got := r.Outcomes().Len(); got != n {
		t.Fatalf("retained %d outcomes, want all %d (outcomes are never sampled)", got, n)
	}
	if len(tap.spans) != n || len(tap.outcomes) != n {
		t.Fatalf("tap saw %d spans / %d outcomes, want %d each (taps precede the gate)",
			len(tap.spans), len(tap.outcomes), n)
	}
}

// TestSamplingSurvivesReset: Reset recycles record storage but keeps the
// sampler config, so a reused recorder admits the same packets run after run.
func TestSamplingSurvivesReset(t *testing.T) {
	r := NewRecorder()
	r.SetSampling(0.5, 11)
	before := make([]bool, 256)
	for id := range before {
		before[id] = r.keepPacket(id)
	}
	r.Reset()
	if r.SampleRate() != 0.5 {
		t.Fatalf("SampleRate after Reset = %v, want 0.5", r.SampleRate())
	}
	for id := range before {
		if r.keepPacket(id) != before[id] {
			t.Fatalf("packet %d: verdict changed across Reset", id)
		}
	}
}

// captureTap records everything it is shown.
type captureTap struct {
	spans    []Span
	outcomes []Outcome
	edges    []Edge
}

func (c *captureTap) TapSpan(s Span)       { c.spans = append(c.spans, s) }
func (c *captureTap) TapOutcome(o Outcome) { c.outcomes = append(c.outcomes, o) }
func (c *captureTap) TapEdge(e Edge)       { c.edges = append(c.edges, e) }
