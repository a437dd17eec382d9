// Package metrics provides the measurement machinery of the benchmark
// harness: streaming mean/std accumulators (Table 2), latency histograms and
// CDFs (Fig. 6), percentile and reliability estimation (the 99.999 %
// requirement), and ASCII rendering for terminal reports.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"urllcsim/internal/sim"
)

// Accumulator is a streaming mean/variance/min/max tracker (Welford).
type Accumulator struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// AddDuration records a duration in microseconds (the paper's unit).
func (a *Accumulator) AddDuration(d sim.Duration) { a.Add(float64(d) / 1000) }

// Merge folds o into a using the parallel Welford combination (Chan et al.):
// count, min and max merge exactly; mean and m2 are the algebraically exact
// combination of the two streams, so a merged accumulator agrees with one
// that saw both streams (up to float rounding, which differs from the
// sequential order of operations but not between merge orders — merging the
// same shards in the same order always yields bit-identical results). o is
// left untouched.
func (a *Accumulator) Merge(o *Accumulator) {
	if o == nil || o.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *o
		return
	}
	n := a.n + o.n
	d := o.mean - a.mean
	a.m2 += o.m2 + d*d*float64(a.n)*float64(o.n)/float64(n)
	a.mean += d * float64(o.n) / float64(n)
	if o.min < a.min {
		a.min = o.min
	}
	if o.max > a.max {
		a.max = o.max
	}
	a.n = n
}

// Reset returns the accumulator to its empty state.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// N returns the observation count.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the running mean.
func (a *Accumulator) Mean() float64 { return a.mean }

// Std returns the population standard deviation.
func (a *Accumulator) Std() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n))
}

// Min returns the smallest observation. An empty accumulator returns 0,
// which is indistinguishable from a genuine minimum of 0 — callers that care
// must check N() > 0 first.
func (a *Accumulator) Min() float64 {
	return a.min
}

// Max returns the largest observation. Same empty-value caveat as Min: an
// empty accumulator returns 0, check N() > 0 to tell the difference.
func (a *Accumulator) Max() float64 {
	return a.max
}

// Histogram is a fixed-bin latency histogram over [0, Max) with overflow
// counted separately. Bin width = Max/Bins. It keeps every sample, so its
// percentiles are exact order statistics: it serves the fixed-size
// experiment panels (Fig. 6, X1, the RTT table), whose sample counts are
// set by the experiment. Long-run series belong in LogHistogram, whose
// memory is bounded by the value range rather than the sample count.
type Histogram struct {
	MaxValue float64
	Counts   []int64
	Overflow int64
	total    int64
	sum      float64   // running sum, in Add and Merge order
	samples  []float64 // every sample, for percentiles
}

// NewHistogram returns a histogram over [0, max) with the given bin count.
func NewHistogram(max float64, bins int) *Histogram {
	if bins <= 0 || max <= 0 {
		panic("metrics: histogram needs positive max and bins")
	}
	return &Histogram{MaxValue: max, Counts: make([]int64, bins)}
}

// Add records one value. Binning clamps negatives into bin 0 and counts
// x ≥ MaxValue (boundary included) as overflow; the raw sample is retained
// unclamped either way, so Percentile/Mean/FractionBelow see true values.
func (h *Histogram) Add(x float64) {
	h.total++
	h.sum += x
	h.samples = append(h.samples, x)
	if x < 0 {
		x = 0
	}
	if x >= h.MaxValue {
		h.Overflow++
		return
	}
	i := int(x / h.MaxValue * float64(len(h.Counts)))
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// AddDuration records a duration in milliseconds (Fig. 6's axis unit).
func (h *Histogram) AddDuration(d sim.Duration) { h.Add(float64(d) / 1e6) }

// N returns the number of recorded values.
func (h *Histogram) N() int64 { return h.total }

// BinCenter returns the centre value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := h.MaxValue / float64(len(h.Counts))
	return (float64(i) + 0.5) * w
}

// Probability returns the fraction of samples in bin i — the y-axis of
// Fig. 6.
func (h *Histogram) Probability(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of the samples using the
// floor-index nearest-rank rule: the sample at index ⌊p·(n−1)⌋ of the
// sorted data. No interpolation — the result is always an observed value,
// and p = 0.5 over an even count returns the lower middle sample. p ≤ 0
// yields the minimum, p ≥ 1 the maximum, and an empty histogram 0.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	s := make([]float64, len(h.samples))
	copy(s, h.samples)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	i := int(p * float64(len(s)-1))
	return s[i]
}

// FractionBelow returns the share of samples strictly below x — e.g. the
// "sub-millisecond 4.4 % of the time" statistic for mmWave.
func (h *Histogram) FractionBelow(x float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	n := 0
	for _, v := range h.samples {
		if v < x {
			n++
		}
	}
	return float64(n) / float64(len(h.samples))
}

// Merge folds o into h: bin counts, overflow, N and the running sum add,
// and o's samples are appended to h's, so a merged histogram reports what
// one that observed h's stream followed by o's reports. Histograms must
// share geometry (MaxValue, bin count); o is left untouched.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	if h.MaxValue != o.MaxValue || len(h.Counts) != len(o.Counts) {
		panic("metrics: merging histograms with different geometry")
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Overflow += o.Overflow
	h.samples = append(h.samples, o.samples...)
	h.total += o.total
	h.sum += o.sum
}

// Mean returns the sample mean over all recorded values (a running sum).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// ASCII renders the histogram as rows of "center | bar count" with width
// proportional to probability (Fig. 6 in a terminal).
func (h *Histogram) ASCII(width int) string {
	var sb strings.Builder
	maxP := 0.0
	for i := range h.Counts {
		if p := h.Probability(i); p > maxP {
			maxP = p
		}
	}
	for i := range h.Counts {
		p := h.Probability(i)
		bar := 0
		if maxP > 0 {
			bar = int(p / maxP * float64(width))
		}
		fmt.Fprintf(&sb, "%7.2f | %-*s %.4f\n", h.BinCenter(i), width, strings.Repeat("#", bar), p)
	}
	if h.Overflow > 0 {
		fmt.Fprintf(&sb, ">%6.2f | overflow %d (%.4f)\n", h.MaxValue, h.Overflow,
			float64(h.Overflow)/float64(h.total))
	}
	return sb.String()
}

// Reliability is the deadline-miss bookkeeping of the URLLC requirement:
// reliability = delivered-within-deadline / offered.
type Reliability struct {
	Deadline sim.Duration
	Offered  int64
	Met      int64
	Lost     int64 // never delivered at all
}

// Record accounts one packet: delivered says whether it arrived, lat its
// one-way latency when delivered.
func (r *Reliability) Record(delivered bool, lat sim.Duration) {
	r.Offered++
	if !delivered {
		r.Lost++
		return
	}
	if lat <= r.Deadline {
		r.Met++
	}
}

// Merge folds o's bookkeeping into r — exact, since every field is a count.
// The deadlines must match; merging audits against different budgets is a
// programming error.
func (r *Reliability) Merge(o *Reliability) {
	if o == nil {
		return
	}
	if r.Deadline != o.Deadline {
		panic("metrics: merging reliabilities with different deadlines")
	}
	r.Offered += o.Offered
	r.Met += o.Met
	r.Lost += o.Lost
}

// Value returns the achieved reliability in [0,1].
func (r *Reliability) Value() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Met) / float64(r.Offered)
}

// Nines returns the "number of nines": 0.99999 → 5.0. Capped at 9 nines to
// keep reports finite when nothing missed.
func (r *Reliability) Nines() float64 {
	v := r.Value()
	if v >= 1 {
		return 9
	}
	if v <= 0 {
		return 0
	}
	n := -math.Log10(1 - v)
	if n > 9 {
		n = 9
	}
	return n
}

// MeetsURLLC reports whether the 99.999 % bar of §1 is reached.
func (r *Reliability) MeetsURLLC() bool { return r.Value() >= 0.99999 }
