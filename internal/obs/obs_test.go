package obs

import (
	"strings"
	"testing"

	"urllcsim/internal/core"
	"urllcsim/internal/sim"
)

// TestNilRecorderIsSafe exercises every recording method on a nil receiver:
// the disabled path must be a no-op, never a panic.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.PacketSpan(1, DirUL, LayerPHY, "x", core.Radio, 0, 0)
	r.Count("c", 1)
	r.SetGauge("g", 1)
	tm := r.TimingH("t")
	tm.Observe(sim.Microsecond)
	r.SlotSnapshot(0)
	if r.Spans().Len() != 0 || r.Outcomes().Len() != 0 || r.Metrics() != nil || r.PacketSpans(0) != nil {
		t.Fatal("nil recorder returned non-nil data")
	}
}

func TestRecorderSpans(t *testing.T) {
	r := NewRecorder()
	r.PacketSpan(7, DirUL, LayerSched, "wait", core.Protocol, sim.Time(1000), 2*sim.Microsecond)
	r.PacketSpan(8, DirDL, LayerAir, "on air", core.Radio, sim.Time(3000), sim.Microsecond)
	r.PacketSpan(7, DirUL, LayerPHY, "decode", core.Processing, sim.Time(3000), sim.Microsecond)

	if n := r.Spans().Len(); n != 3 {
		t.Fatalf("recorded %d spans, want 3", n)
	}
	ps := r.PacketSpans(7)
	if len(ps) != 2 || ps[0].Step != "wait" || ps[1].Step != "decode" {
		t.Fatalf("PacketSpans(7) = %+v", ps)
	}
	if got := ps[0].End(); got != sim.Time(3000) {
		t.Fatalf("span end %v, want 3000", got)
	}
}

// TestEngineSinkAndLegacyTracer proves that a plain func(Time, string) hook
// mounted on the engine's Sink through TracerFunc sees every fired event:
// names, times and same-instant FIFO order.
func TestEngineSinkAndLegacyTracer(t *testing.T) {
	eng := sim.NewEngine()
	type fired struct {
		t    sim.Time
		name string
	}
	var hooked []fired
	eng.Sink = TracerFunc(func(t sim.Time, name string) { hooked = append(hooked, fired{t, name}) })

	eng.After(sim.Microsecond, "a", func() {})
	eng.After(2*sim.Microsecond, "b", func() {
		eng.After(0, "c", func() {})
	})
	eng.After(2*sim.Microsecond, "b2", func() {})
	eng.RunAll()

	if len(hooked) != 4 {
		t.Fatalf("hook saw %v, want 4 events", hooked)
	}
	if got := hooked[1].name + hooked[2].name + hooked[3].name; got != "bb2c" {
		t.Fatalf("same-instant order %q, want FIFO bb2c", got)
	}
	if hooked[0] != (fired{sim.Time(1000), "a"}) || hooked[1].t != sim.Time(2000) || hooked[3].t != sim.Time(2000) {
		t.Fatalf("hook events = %+v", hooked)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("x")
	c1.Add(1)
	c1.Add(2)
	if c2 := reg.Counter("x"); c2 != c1 || c2.Value() != 3 {
		t.Fatalf("counter not shared: %v %v", c1, c2)
	}
	g := reg.Gauge("depth")
	g.Set(4)
	if reg.Gauge("depth").Value() != 4 {
		t.Fatal("gauge not shared")
	}
	tm := reg.Timing("lat")
	tm.Observe(100 * sim.Microsecond)
	tm.Observe(300 * sim.Microsecond)
	if reg.Timing("lat").Acc.N() != 2 {
		t.Fatal("timing not shared")
	}
	if mean := reg.Timing("lat").Acc.Mean(); mean != 200 {
		t.Fatalf("timing mean %v µs, want 200", mean)
	}
	if len(reg.Counters()) != 1 || len(reg.Gauges()) != 1 || len(reg.Timings()) != 1 {
		t.Fatal("registration order lists wrong length")
	}
}

// TestSnapshotsAreRaggedSafe: metrics registered after a snapshot must not
// corrupt earlier snapshots, and later snapshots carry the new columns.
func TestSnapshotsAreRaggedSafe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Add(1)
	reg.Snapshot(sim.Time(1000))
	reg.Counter("b").Add(5)
	reg.Gauge("g").Set(2.5)
	reg.Snapshot(sim.Time(2000))

	snaps := reg.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots, want 2", len(snaps))
	}
	if len(snaps[0].Counters) != 1 || snaps[0].Counters[0] != 1 {
		t.Fatalf("first snapshot %+v", snaps[0])
	}
	if len(snaps[1].Counters) != 2 || snaps[1].Counters[1] != 5 || snaps[1].Gauges[0] != 2.5 {
		t.Fatalf("second snapshot %+v", snaps[1])
	}
}

func TestRegistrySummary(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("harq.retx").Add(3)
	reg.Gauge("rlc.depth").Set(7)
	reg.Timing("lat.ul").Observe(500 * sim.Microsecond)
	s := reg.Summary()
	for _, want := range []string{"harq.retx", "3", "rlc.depth", "7.00", "lat.ul", "500.00"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestLayerAndDirStrings(t *testing.T) {
	if LayerSDAP.String() != "SDAP" || LayerBus.String() != "bus" || LayerAir.String() != "air" {
		t.Fatal("layer names wrong")
	}
	if Layer(200).String() != "layer?" {
		t.Fatal("out-of-range layer not handled")
	}
	if DirUL.String() != "UL" || DirDL.String() != "DL" || DirNone.String() != "-" {
		t.Fatal("dir names wrong")
	}
}

func TestRegistryMerge(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("pkt.offered").Add(2)
	r1.Gauge("queue.depth").Set(1.5)
	r1.Timing("pkt.latency").Observe(100 * sim.Microsecond)
	r1.Timing("pkt.latency").Observe(200 * sim.Microsecond)
	r1.Snapshot(0)

	r2 := NewRegistry()
	r2.Counter("pkt.offered").Add(3)
	r2.Counter("pkt.lost").Add(7)
	r2.Gauge("queue.depth").Set(2.5)
	r2.Timing("pkt.latency").Observe(300 * sim.Microsecond)
	r2.Timing("bus.submit").Observe(50 * sim.Microsecond)

	m := NewRegistry()
	m.Merge(r1)
	m.Merge(r2)
	m.Merge(nil)

	if got := m.Counter("pkt.offered").Value(); got != 5 {
		t.Fatalf("counters must add: pkt.offered = %d", got)
	}
	if got := m.Counter("pkt.lost").Value(); got != 7 {
		t.Fatalf("new instruments must register: pkt.lost = %d", got)
	}
	if got := m.Gauge("queue.depth").Value(); got != 2.5 {
		t.Fatalf("gauges are last-value-wins: got %v", got)
	}
	lat := m.Timing("pkt.latency")
	if lat.Acc.N() != 3 || lat.Acc.Mean() != 200 {
		t.Fatalf("timing distributions must merge: n=%d mean=%v", lat.Acc.N(), lat.Acc.Mean())
	}
	if lat.HDR.N() != 3 || float64(lat.HDR.Max()) != lat.Acc.Max()*1000 {
		t.Fatalf("histogram not merged: n=%d max=%dns", lat.HDR.N(), lat.HDR.Max())
	}
	if m.Timing("bus.submit").Acc.N() != 1 {
		t.Fatal("timing new to the destination lost")
	}
	// Registration order: r1's instruments first, then r2's novelties.
	cs := m.Counters()
	if len(cs) != 2 || cs[0].Name != "pkt.offered" || cs[1].Name != "pkt.lost" {
		t.Fatalf("merged registration order nondeterministic: %v", cs)
	}
	// Snapshots stay with their shard: their columns index the source
	// registry's registration order.
	if len(m.Snapshots()) != 0 {
		t.Fatalf("snapshots must not merge, got %d", len(m.Snapshots()))
	}
	// Sources untouched.
	if r1.Counter("pkt.offered").Value() != 2 || r2.Counter("pkt.offered").Value() != 3 {
		t.Fatal("merge mutated a source registry")
	}
}
