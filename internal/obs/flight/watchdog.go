package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"urllcsim/internal/obs"
	"urllcsim/internal/obs/jsonl"
	"urllcsim/internal/sim"
)

// AnomalySchema versions the `anomaly` JSONL records the watchdog emits.
// Bump on any field change so re-ingest fails loudly instead of zero-filling.
const AnomalySchema = "urllcsim-anomaly/v1"

// DefaultWindow is the number of packet outcomes per evaluation window.
// Small enough to localise a burst of misses in time, large enough that a
// p99 estimate over the window is meaningful.
const DefaultWindow = 256

// WatchdogConfig sets the SLO thresholds the live watchdog enforces.
// A zero threshold disables that check.
type WatchdogConfig struct {
	Window      int           // outcomes per evaluation window (DefaultWindow if 0)
	MaxMissRate float64       // fire when (losses+deadline misses)/window exceeds this fraction
	MaxP99      sim.Duration  // fire when the window's p99 delivered latency exceeds this
	Deadline    sim.Duration  // latency budget defining a deadline miss
	Out         io.Writer     // structured anomaly JSONL destination (nil: metrics only)
	Rec         *obs.Recorder // watchdog.* gauges/counters land here (nil-safe)
}

// Anomaly is one SLO-threshold violation over one evaluation window.
type Anomaly struct {
	Time      sim.Time // sim time of the outcome that closed the window
	Dir       obs.Dir
	Metric    string // "miss_rate" | "p99_us"
	Value     float64
	Threshold float64
	N         int // outcomes in the window
}

// jsonAnomaly is the wire form of one anomaly record.
type jsonAnomaly struct {
	Kind      string  `json:"kind"` // "anomaly"
	Schema    string  `json:"schema"`
	TUs       float64 `json:"t_us"`
	Dir       string  `json:"dir"`
	Metric    string  `json:"metric"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	N         int     `json:"n"`
}

func parseAnomaly(ja *jsonAnomaly) (Anomaly, error) {
	dir, ok := obs.ParseDir(ja.Dir)
	if !ok {
		return Anomaly{}, fmt.Errorf("unknown dir %q", ja.Dir)
	}
	at, err := jsonl.NanosFromMicros("t_us", ja.TUs)
	if err != nil {
		return Anomaly{}, err
	}
	return Anomaly{
		Time: sim.Time(at), Dir: dir, Metric: ja.Metric,
		Value: ja.Value, Threshold: ja.Threshold, N: ja.N,
	}, nil
}

// wdWindow accumulates one direction's current evaluation window.
type wdWindow struct {
	lat    []sim.Duration // delivered latencies, in outcome order
	misses int            // losses + deadline misses
	count  int            // outcomes seen this window
}

// Watchdog is a streaming SLO monitor riding the same outcome stream as the
// flight recorder: per-direction windows of packet outcomes are scored
// against miss-rate and tail-latency thresholds, violations publish
// watchdog.* registry metrics (visible live under -serve) and append
// structured `anomaly` JSONL events. Driven purely by the deterministic
// outcome order, so two runs of the same scenario fire identical anomalies.
type Watchdog struct {
	cfg       WatchdogConfig
	win       map[obs.Dir]*wdWindow
	enc       *json.Encoder
	anomalies []Anomaly
	scratch   []sim.Duration // reused sort buffer: no per-window allocation
	err       error          // first JSONL write error, surfaced by Err
}

var _ obs.Tap = (*Watchdog)(nil)

// NewWatchdog returns a watchdog with the given thresholds.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	w := &Watchdog{cfg: cfg, win: map[obs.Dir]*wdWindow{}}
	if cfg.Out != nil {
		w.enc = json.NewEncoder(cfg.Out)
	}
	return w
}

// TapSpan is a no-op: the watchdog scores outcomes, not spans.
func (w *Watchdog) TapSpan(obs.Span) {}

// TapEdge is a no-op.
func (w *Watchdog) TapEdge(obs.Edge) {}

// TapOutcome feeds one packet outcome into its direction's window and
// evaluates the window when full.
func (w *Watchdog) TapOutcome(o obs.Outcome) {
	wd := w.win[o.Dir]
	if wd == nil {
		wd = &wdWindow{lat: make([]sim.Duration, 0, w.cfg.Window)}
		w.win[o.Dir] = wd
	}
	wd.count++
	if !o.Delivered || (w.cfg.Deadline > 0 && o.Latency > w.cfg.Deadline) {
		wd.misses++
	}
	if o.Delivered {
		wd.lat = append(wd.lat, o.Latency)
	}
	if wd.count >= w.cfg.Window {
		w.evaluate(o.Dir, wd, o.End)
		wd.count, wd.misses = 0, 0
		wd.lat = wd.lat[:0]
	}
}

// evaluate scores one full window and fires anomalies for each threshold
// crossed.
func (w *Watchdog) evaluate(dir obs.Dir, wd *wdWindow, t sim.Time) {
	rec := w.cfg.Rec
	missRate := float64(wd.misses) / float64(wd.count)
	rec.SetGauge("watchdog."+dirTag(dir)+".miss_rate", missRate)
	if w.cfg.MaxMissRate > 0 && missRate > w.cfg.MaxMissRate {
		w.fire(Anomaly{Time: t, Dir: dir, Metric: "miss_rate",
			Value: missRate, Threshold: w.cfg.MaxMissRate, N: wd.count})
	}
	if len(wd.lat) == 0 {
		return
	}
	w.scratch = append(w.scratch[:0], wd.lat...)
	sort.Slice(w.scratch, func(i, j int) bool { return w.scratch[i] < w.scratch[j] })
	idx := (99*len(w.scratch) + 99) / 100 // ceil(0.99*n)
	if idx > len(w.scratch) {
		idx = len(w.scratch)
	}
	p99 := w.scratch[idx-1]
	rec.SetGauge("watchdog."+dirTag(dir)+".p99_us", us(p99))
	if w.cfg.MaxP99 > 0 && p99 > w.cfg.MaxP99 {
		w.fire(Anomaly{Time: t, Dir: dir, Metric: "p99_us",
			Value: us(p99), Threshold: us(w.cfg.MaxP99), N: wd.count})
	}
}

// fire records one anomaly: registry counter, in-memory list, JSONL event.
func (w *Watchdog) fire(a Anomaly) {
	w.cfg.Rec.Count("watchdog.anomalies", 1)
	w.anomalies = append(w.anomalies, a)
	if w.enc != nil && w.err == nil {
		w.err = w.enc.Encode(jsonAnomaly{
			Kind: "anomaly", Schema: AnomalySchema,
			TUs: a.Time.Micros(), Dir: a.Dir.String(), Metric: a.Metric,
			Value: a.Value, Threshold: a.Threshold, N: a.N,
		})
	}
}

// WriteAnomalies appends one `anomaly` JSONL record per anomaly, in firing
// order — the same wire form the streaming Out path produces, so a flight
// file can carry the watchdog's verdicts next to the exemplars.
func WriteAnomalies(w io.Writer, anomalies []Anomaly) error {
	enc := json.NewEncoder(w)
	for _, a := range anomalies {
		if err := enc.Encode(jsonAnomaly{
			Kind: "anomaly", Schema: AnomalySchema,
			TUs: a.Time.Micros(), Dir: a.Dir.String(), Metric: a.Metric,
			Value: a.Value, Threshold: a.Threshold, N: a.N,
		}); err != nil {
			return err
		}
	}
	return nil
}

// Anomalies returns every anomaly fired so far, in firing order.
func (w *Watchdog) Anomalies() []Anomaly { return w.anomalies }

// Err reports the first anomaly-stream write error, if any.
func (w *Watchdog) Err() error { return w.err }

func dirTag(d obs.Dir) string {
	switch d {
	case obs.DirUL:
		return "ul"
	case obs.DirDL:
		return "dl"
	}
	return "sys"
}
