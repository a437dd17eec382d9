package obs

import (
	"time"
	"unsafe"
)

// Observer-tax self-accounting: the cost of observation, itself observed.
//
// A metered recorder measures the wall time spent inside its own recording
// methods — span/outcome retention, metric updates, slot snapshots —
// and counts the records each category handled, so the engine self-profiler
// (internal/obs/prof) can report an explicit, *measured* obs.* attribution
// line instead of leaving the observer's cost smeared across event types.
// Metering is off by default: every hot-path method pays one extra pointer
// comparison, same discipline as the tap and live-serve branches. With
// metering on, each record pays two monotonic clock reads — that is the
// meter's own tax, and it is included in the numbers it reports (the wall
// spent metering is wall spent observing).

// meterCat indexes one metered category.
type meterCat uint8

const (
	meterSpan meterCat = iota
	meterOutcome
	meterMetric // counters, gauges, timings, labeled families
	meterSnapshot
	numMeterCats
)

var meterCatNames = [numMeterCats]string{"span", "outcome", "metric", "snapshot"}

// meter accumulates per-category wall time and record counts.
type meter struct {
	wallNs [numMeterCats]int64
	recs   [numMeterCats]int64
}

// add closes one metered section: charge the elapsed wall since t0 to cat.
func (m *meter) add(cat meterCat, t0 time.Time) {
	m.wallNs[cat] += time.Since(t0).Nanoseconds()
	m.recs[cat]++
}

// EnableMeter turns on observer-tax metering. Call before the run; the
// profiler's MeterObs does this when attached.
func (r *Recorder) EnableMeter() {
	if r == nil || r.meter != nil {
		return
	}
	r.meter = &meter{}
}

// MeterStat is one metered category's measured cost.
type MeterStat struct {
	Category string `json:"category"`
	Records  int64  `json:"records"`
	WallNs   int64  `json:"wall_ns"`
}

// MeterReport is the recorder's measured self-cost: wall time inside
// recording methods by category, total records handled, and the bytes of
// storage the recorder currently retains (slice capacities of the span/
// outcome logs, histogram buckets, sample reservoirs and the snapshot
// arena — the observer's actual footprint, not an estimate).
type MeterReport struct {
	WallNs        int64       `json:"wall_ns"`
	Records       int64       `json:"records"`
	RetainedBytes int64       `json:"retained_bytes"`
	Categories    []MeterStat `json:"categories,omitempty"`
}

// MeterReport returns the measured observer tax so far, or nil when metering
// was never enabled (or the recorder is disabled).
func (r *Recorder) MeterReport() *MeterReport {
	if r == nil || r.meter == nil {
		return nil
	}
	rep := &MeterReport{RetainedBytes: r.RetainedBytes()}
	for c := meterCat(0); c < numMeterCats; c++ {
		if r.meter.recs[c] == 0 && r.meter.wallNs[c] == 0 {
			continue
		}
		rep.WallNs += r.meter.wallNs[c]
		rep.Records += r.meter.recs[c]
		rep.Categories = append(rep.Categories, MeterStat{
			Category: meterCatNames[c],
			Records:  r.meter.recs[c],
			WallNs:   r.meter.wallNs[c],
		})
	}
	return rep
}

// RetainedBytes measures the storage the recorder currently holds: the
// capacity of every retained log and of the registry's histogram buckets,
// reservoirs and snapshot arena. This is the observer's resident footprint —
// what Reset recycles and what a bounded-memory run (SpillSpans, retention
// off) keeps flat.
func (r *Recorder) RetainedBytes() int64 {
	if r == nil {
		return 0
	}
	b := int64(cap(r.spans)) * int64(unsafe.Sizeof(Span{}))
	b += int64(cap(r.outcomes)) * int64(unsafe.Sizeof(Outcome{}))
	b += int64(cap(r.slots)) * int64(unsafe.Sizeof(SlotRecord{}))
	for _, s := range r.slots {
		b += int64(cap(s.PerUE)) * int64(unsafe.Sizeof(SlotUETake{}))
	}
	b += r.reg.storageBytes()
	return b
}
