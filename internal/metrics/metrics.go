// Package metrics provides the measurement machinery of the simulator:
// streaming mean/std accumulators (Table 2), the log-bucketed LogHistogram
// behind every latency tail and its percentiles, and reliability estimation
// (the 99.999 % requirement).
package metrics

import (
	"math"

	"urllcsim/internal/sim"
)

// Accumulator is a streaming mean/variance/max tracker (Welford).
type Accumulator struct {
	n        int64
	mean, m2 float64
	max      float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 || x > a.max {
		a.max = x
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// AddDuration records a duration in microseconds (the paper's unit).
func (a *Accumulator) AddDuration(d sim.Duration) { a.Add(float64(d) / 1000) }

// Merge folds o into a using the parallel Welford combination (Chan et al.):
// count and max merge exactly; mean and m2 are the algebraically exact
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

// Max returns the largest observation. An empty accumulator returns 0,
// which is indistinguishable from a genuine maximum of 0 — callers that care
// must check N() > 0 first.
func (a *Accumulator) Max() float64 {
	return a.max
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
