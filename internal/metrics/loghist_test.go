package metrics

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"urllcsim/internal/sim"
)

// lcg is a tiny deterministic generator for synthetic distributions — the
// tests must not depend on math/rand ordering across Go versions.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

func (r *lcg) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exactRank applies the same floor-index nearest-rank rule the histograms
// document, over the full sorted sample set.
func exactRank(sorted []int64, q float64) int64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// TestLogHistogramQuantileAccuracy is the acceptance bound of the HDR-style
// histogram: on known distributions (including a ≥100k-sample run) every
// reported quantile up to p99.999 must land within one bucket width of the
// exact-rank value, and the extremes must be exact.
func TestLogHistogramQuantileAccuracy(t *testing.T) {
	gen := func(n int, f func(r *lcg) int64) []int64 {
		r := lcg(12345)
		out := make([]int64, n)
		for i := range out {
			out[i] = f(&r)
		}
		return out
	}
	cases := []struct {
		name    string
		samples []int64
	}{
		{"single-sample", []int64{487_300}},
		{"all-equal", gen(10_000, func(*lcg) int64 { return 500_000 })},
		{"two-values", gen(1000, func(r *lcg) int64 {
			if r.next()%2 == 0 {
				return 100
			}
			return 1_000_000
		})},
		{"uniform-0..1ms", gen(150_000, func(r *lcg) int64 { return int64(r.next() % 1_000_000) })},
		{"exponential-ish", gen(150_000, func(r *lcg) int64 {
			// Inverse-CDF exponential with 300µs mean: a long latency tail.
			u := r.float()
			if u >= 1 {
				u = math.Nextafter(1, 0)
			}
			return int64(-300_000 * math.Log(1-u))
		})},
		{"bimodal-slots", gen(120_000, func(r *lcg) int64 {
			// Fast path around 400µs, HARQ tail around 900µs — the "steps
			// of 0.5ms" shape of retransmissions.
			base := int64(400_000)
			if r.next()%100 == 0 {
				base = 900_000
			}
			return base + int64(r.next()%20_000)
		})},
		{"tiny-values", gen(5000, func(r *lcg) int64 { return int64(r.next() % 50) })},
	}
	quantiles := []float64{0, 0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 1}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := NewLogHistogram()
			for _, v := range c.samples {
				h.Add(v)
			}
			if h.N() != int64(len(c.samples)) {
				t.Fatalf("N = %d, want %d", h.N(), len(c.samples))
			}
			sorted := append([]int64(nil), c.samples...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			if h.Min() != sorted[0] || h.Max() != sorted[len(sorted)-1] {
				t.Fatalf("min/max = %d/%d, want %d/%d", h.Min(), h.Max(), sorted[0], sorted[len(sorted)-1])
			}
			for _, q := range quantiles {
				exact := exactRank(sorted, q)
				got := h.Quantile(q)
				if q == 0 || q == 1 {
					if got != exact {
						t.Fatalf("Quantile(%v) = %d, want exact %d", q, got, exact)
					}
					continue
				}
				if width := h.BucketWidth(exact); absInt64(got-exact) > width {
					t.Fatalf("Quantile(%v) = %d, exact-rank %d, |Δ|=%d > bucket width %d",
						q, got, exact, absInt64(got-exact), width)
				}
			}
			// Mean is tracked exactly, not from buckets.
			var sum float64
			for _, v := range c.samples {
				sum += float64(v)
			}
			if want := sum / float64(len(c.samples)); math.Abs(h.Mean()-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("Mean = %v, want %v", h.Mean(), want)
			}
		})
	}
}

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestLogHistogramRelativeErrorBound pins the design guarantee behind the
// accuracy: the bucket containing v is never wider than max(1, v >> 10), so
// quantile error is bounded at ~0.1 % of the value.
func TestLogHistogramRelativeErrorBound(t *testing.T) {
	h := NewLogHistogram()
	for _, v := range []int64{0, 1, 2047, 2048, 4095, 4096, 1_000_000, 500 * 1000 * 1000, 1 << 40} {
		w := h.BucketWidth(v)
		bound := v >> logSubBucketBits
		if bound < 1 {
			bound = 1
		}
		if w > bound {
			t.Fatalf("bucket width at %d is %d, bound %d", v, w, bound)
		}
	}
}

// TestLogHistogramMergeExact: merging shard histograms must be
// indistinguishable from one histogram that saw every sample.
func TestLogHistogramMergeExact(t *testing.T) {
	r := lcg(7)
	const shards = 8
	whole := NewLogHistogram()
	parts := make([]*LogHistogram, shards)
	for i := range parts {
		parts[i] = NewLogHistogram()
	}
	for i := 0; i < 200_000; i++ {
		v := int64(r.next() % 2_000_000)
		whole.Add(v)
		parts[i%shards].Add(v)
	}
	merged := NewLogHistogram()
	for _, p := range parts {
		merged.Merge(p)
	}
	merged.Merge(NewLogHistogram()) // merging an empty histogram is a no-op
	if merged.N() != whole.N() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged N/min/max = %d/%d/%d, want %d/%d/%d",
			merged.N(), merged.Min(), merged.Max(), whole.N(), whole.Min(), whole.Max())
	}
	if merged.Sum() != whole.Sum() {
		t.Fatalf("merged Sum = %v, want %v", merged.Sum(), whole.Sum())
	}
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 0.99999, 1} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("Quantile(%v): merged %d ≠ whole %d", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
	// And the bucket streams are identical.
	type bucket struct{ ub, cum int64 }
	collect := func(h *LogHistogram) []bucket {
		var out []bucket
		h.Buckets(func(ub, cum int64) { out = append(out, bucket{ub, cum}) })
		return out
	}
	a, b := collect(merged), collect(whole)
	if len(a) != len(b) {
		t.Fatalf("bucket count %d ≠ %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bucket %d: %+v ≠ %+v", i, a[i], b[i])
		}
	}
}

// TestLogHistogramWindow: only the touched bucket window is stored, and the
// order values arrive in (window widened downward, upward, by Merge, after a
// Reset) never changes what the histogram reports.
func TestLogHistogramWindow(t *testing.T) {
	type bucket struct{ ub, cum int64 }
	view := func(h *LogHistogram) ([]bucket, float64, float64, int64) {
		var bs []bucket
		h.Buckets(func(ub, cum int64) { bs = append(bs, bucket{ub, cum}) })
		return bs, h.StdApprox(), h.FractionBelow(1_000_500), h.Quantile(0.5)
	}
	r := lcg(3)
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = 1_000_000 + int64(r.next()%1000) // 1 ms ± 1 µs: a handful of buckets
	}
	asc := NewLogHistogram()
	for _, v := range vals {
		asc.Add(v)
	}
	if len(asc.counts) > 4 {
		t.Fatalf("a 1 µs band at 1 ms stored %d buckets", len(asc.counts))
	}

	desc, lo, hi := NewLogHistogram(), NewLogHistogram(), NewLogHistogram()
	for i := len(vals) - 1; i >= 0; i-- {
		desc.Add(vals[i])
	}
	for _, v := range vals {
		if v < 1_000_500 {
			lo.Add(v)
		} else {
			hi.Add(v)
		}
	}
	merged := NewLogHistogram()
	merged.Merge(hi)
	merged.Merge(lo) // widens the window downward
	want := fmt.Sprint(view(asc))
	for name, h := range map[string]*LogHistogram{"descending": desc, "merged": merged} {
		if got := fmt.Sprint(view(h)); got != want {
			t.Errorf("%s: %s, want %s", name, got, want)
		}
	}

	allocs := testing.AllocsPerRun(10, func() {
		desc.Reset()
		for _, v := range vals {
			desc.Add(v)
		}
	})
	if allocs != 0 {
		t.Errorf("refilling a reset histogram allocated %.0f times", allocs)
	}
	if got := fmt.Sprint(view(desc)); got != want {
		t.Errorf("after Reset: %s, want %s", got, want)
	}
}

// TestLogHistogramMemoryBounded: memory is O(buckets in the value range),
// not O(samples) — a million samples over 10 ms must stay in a few thousand
// buckets.
func TestLogHistogramMemoryBounded(t *testing.T) {
	h := NewLogHistogram()
	r := lcg(99)
	for i := 0; i < 1_000_000; i++ {
		h.Add(int64(r.next() % 10_000_000)) // 0–10 ms in ns
	}
	// 10 ms < 2^24: linear head (2048) + 13 octaves × 1024.
	maxBuckets := logLinearMax + (24-logLinearBits+1)*logSubBuckets
	if len(h.counts) > maxBuckets {
		t.Fatalf("counts grew to %d entries for 1e6 samples (bound %d)", len(h.counts), maxBuckets)
	}
}

func TestLogHistogramEmptyAndEdges(t *testing.T) {
	h := NewLogHistogram()
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.N() != 0 {
		t.Fatal("empty histogram stats not zero")
	}
	h.Buckets(func(int64, int64) { t.Fatal("empty histogram has no buckets") })
	h.Add(-5) // clamps to bucket 0 but is recorded
	if h.N() != 1 || h.Min() != -5 || h.Quantile(0) != -5 {
		t.Fatalf("negative sample mishandled: N=%d min=%d", h.N(), h.Min())
	}
	h2 := NewLogHistogram()
	h2.AddDuration(500 * sim.Microsecond)
	if h2.QuantileDuration(0.99999) != 500*sim.Microsecond {
		t.Fatalf("single-sample p99.999 = %v", h2.QuantileDuration(0.99999))
	}
	if h2.FractionBelow(500_000) != 0 || h2.FractionBelow(2_000_000) != 1 {
		t.Fatalf("FractionBelow wrong: %v %v", h2.FractionBelow(500_000), h2.FractionBelow(2_000_000))
	}
}

// TestLogIndexRoundTrip: every bucket's lower bound maps back to the same
// bucket, and boundaries are continuous (no value maps below a smaller
// value's bucket).
func TestLogIndexRoundTrip(t *testing.T) {
	for idx := 0; idx < logLinearMax+20*logSubBuckets; idx++ {
		lo := logLowerBound(idx)
		if got := logIndex(lo); got != idx {
			t.Fatalf("logIndex(logLowerBound(%d)=%d) = %d", idx, lo, got)
		}
		hi := lo + logWidth(idx) - 1
		if got := logIndex(hi); got != idx {
			t.Fatalf("upper edge %d of bucket %d maps to %d", hi, idx, got)
		}
		if next := logIndex(hi + 1); next != idx+1 {
			t.Fatalf("bucket %d not contiguous: %d maps to %d", idx, hi+1, next)
		}
	}
}

// TestHistogramReservoirCap: past SampleCap the fixed-bin histogram must
// stop growing, keep Mean/N exact, and keep percentile estimates close on a
// stable distribution.
func TestHistogramReservoirCap(t *testing.T) {
	h := NewHistogram(10, 100)
	r := lcg(3)
	n := SampleCap + 50_000
	for i := 0; i < n; i++ {
		h.Add(float64(r.next()%10_000) / 1000) // uniform 0–10
	}
	if h.Retained() != SampleCap {
		t.Fatalf("retained %d samples, want cap %d", h.Retained(), SampleCap)
	}
	if h.N() != int64(n) {
		t.Fatalf("N = %d, want %d", h.N(), n)
	}
	if got := h.Mean(); math.Abs(got-5) > 0.05 {
		t.Fatalf("mean = %v, want ≈5 (exact running sum)", got)
	}
	// Reservoir percentile of uniform(0,10): p50 ≈ 5 within sampling noise.
	if got := h.Percentile(0.5); math.Abs(got-5) > 0.2 {
		t.Fatalf("reservoir p50 = %v, want ≈5", got)
	}
	if got := h.FractionBelow(1); math.Abs(got-0.1) > 0.02 {
		t.Fatalf("reservoir FractionBelow(1) = %v, want ≈0.1", got)
	}
}

// TestHistogramReservoirDeterministic: two identical runs must retain the
// identical reservoir — reproducibility is a repo-wide hard requirement.
func TestHistogramReservoirDeterministic(t *testing.T) {
	build := func() *Histogram {
		h := NewHistogram(10, 10)
		r := lcg(42)
		for i := 0; i < SampleCap+10_000; i++ {
			h.Add(float64(r.next()%10_000) / 1000)
		}
		return h
	}
	a, b := build(), build()
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if a.Percentile(q) != b.Percentile(q) {
			t.Fatalf("reservoir not deterministic at q=%v: %v ≠ %v", q, a.Percentile(q), b.Percentile(q))
		}
	}
}
