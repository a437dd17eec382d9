package obs

import (
	"urllcsim/internal/metrics"
	"urllcsim/internal/sim"
)

// Metric handles: the hot-path form of Count/SetGauge, and the only
// recorder path for timings.
//
// The name-keyed methods pay a map lookup per record; a handle resolves the
// instrument once and reuses the pointer, so a per-slot or per-packet call
// site costs an increment inside the recorder's one metered, live-locked
// section (see Recorder.begin). Resolution is *lazy* — the instrument
// registers on first use, not at handle creation — so converting a call site
// to a handle cannot change registration order, summary layout or snapshot
// columns: byte-identical output to the name-keyed form is guaranteed by
// construction (first use happens at exactly the call site that used to
// register the name).
//
// A handle created from a nil recorder is the disabled state, like the
// recorder itself: every method returns after one comparison. Handles are
// owned by the single simulation thread.

// CounterHandle is a pre-resolved counter. Create with Recorder.CounterH.
type CounterHandle struct {
	r    *Recorder
	c    *Counter
	name string
}

// CounterH returns a lazy handle on the named counter. Nil-safe.
func (r *Recorder) CounterH(name string) CounterHandle {
	return CounterHandle{r: r, name: name}
}

// Add adds delta to the counter, registering it on first use.
func (h *CounterHandle) Add(delta int64) {
	if h.r == nil {
		return
	}
	t0 := h.r.begin()
	if h.c == nil {
		h.c = h.r.reg.Counter(h.name)
	}
	h.c.Add(delta)
	h.r.end(meterMetric, t0)
}

// Inc adds one.
func (h *CounterHandle) Inc() { h.Add(1) }

// GaugeHandle is a pre-resolved gauge. Create with Recorder.GaugeH.
type GaugeHandle struct {
	r    *Recorder
	g    *Gauge
	name string
}

// GaugeH returns a lazy handle on the named gauge. Nil-safe.
func (r *Recorder) GaugeH(name string) GaugeHandle {
	return GaugeHandle{r: r, name: name}
}

// Set stores v, registering the gauge on first use.
func (h *GaugeHandle) Set(v float64) {
	if h.r == nil {
		return
	}
	t0 := h.r.begin()
	if h.g == nil {
		h.g = h.r.reg.Gauge(h.name)
	}
	h.g.Set(v)
	h.r.end(meterMetric, t0)
}

// TimingHandle is a pre-resolved timing. Create with Recorder.TimingH.
type TimingHandle struct {
	r    *Recorder
	t    *Timing
	name string
}

// TimingH returns a lazy handle on the named timing. Nil-safe.
func (r *Recorder) TimingH(name string) TimingHandle {
	return TimingHandle{r: r, name: name}
}

// Observe records one duration, registering the timing on first use.
func (h *TimingHandle) Observe(d sim.Duration) {
	if h.r == nil {
		return
	}
	t0 := h.r.begin()
	if h.t == nil {
		h.t = h.r.reg.Timing(h.name)
	}
	h.t.Observe(d)
	h.r.end(meterMetric, t0)
}

// CounterFamHandle is a pre-resolved labeled counter family. Create with
// CounterFamH (package-level: Go has no generic methods).
type CounterFamHandle[K LabelSet] struct {
	r    *Recorder
	f    *LabeledFamily[K, Counter]
	name string
}

// CounterFamH returns a lazy handle on the named counter family. Nil-safe.
func CounterFamH[K LabelSet](r *Recorder, name string) CounterFamHandle[K] {
	return CounterFamHandle[K]{r: r, name: name}
}

// Add adds delta to the keyed counter, registering family and row on first
// use.
func (h *CounterFamHandle[K]) Add(k K, delta int64) {
	if h.r == nil {
		return
	}
	t0 := h.r.begin()
	if h.f == nil {
		h.f = CounterFam[K](h.r.reg, h.name)
	}
	h.f.At(k).Add(delta)
	h.r.end(meterMetric, t0)
}

// GaugeFamHandle is a pre-resolved labeled gauge family. Create with
// GaugeFamH.
type GaugeFamHandle[K LabelSet] struct {
	r    *Recorder
	f    *LabeledFamily[K, Gauge]
	name string
}

// GaugeFamH returns a lazy handle on the named gauge family. Nil-safe.
func GaugeFamH[K LabelSet](r *Recorder, name string) GaugeFamHandle[K] {
	return GaugeFamHandle[K]{r: r, name: name}
}

// Set stores v in the keyed gauge, registering family and row on first use.
func (h *GaugeFamHandle[K]) Set(k K, v float64) {
	if h.r == nil {
		return
	}
	t0 := h.r.begin()
	if h.f == nil {
		h.f = GaugeFam[K](h.r.reg, h.name)
	}
	h.f.At(k).Set(v)
	h.r.end(meterMetric, t0)
}

// HistFamHandle is a pre-resolved labeled histogram family. Create with
// HistFamH.
type HistFamHandle[K LabelSet] struct {
	r    *Recorder
	f    *LabeledFamily[K, metrics.LogHistogram]
	name string
}

// HistFamH returns a lazy handle on the named histogram family. Nil-safe.
func HistFamH[K LabelSet](r *Recorder, name string) HistFamHandle[K] {
	return HistFamHandle[K]{r: r, name: name}
}

// Observe records d into the keyed histogram, registering family and row on
// first use.
func (h *HistFamHandle[K]) Observe(k K, d sim.Duration) {
	if h.r == nil {
		return
	}
	t0 := h.r.begin()
	if h.f == nil {
		h.f = HistFam[K](h.r.reg, h.name)
	}
	h.f.At(k).AddDuration(d)
	h.r.end(meterMetric, t0)
}
