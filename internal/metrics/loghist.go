package metrics

import (
	"iter"
	"math"
	"math/bits"
	"unsafe"

	"urllcsim/internal/sim"
)

// LogHistogram is an HDR-style log-bucketed histogram over non-negative
// integer values (nanosecond durations, byte counts, …). The value axis is
// split into a linear head of unit-width buckets followed by octaves of
// logWidth sub-buckets each, so the bucket containing a value v is never
// wider than max(1, v/subBuckets): quantiles are exact to one part in
// subBuckets (≈0.1 %) of the value, independent of the sample count.
//
// LogHistogram retains no raw samples, so its memory is bounded by the
// value range rather than the sample count (the fixed-size experiment panels,
// which keep every sample, sort a slice instead). Two LogHistograms merge
// exactly (bucket geometry is a package constant), so
// per-UE or per-shard histograms combine into a fleet histogram without loss.
// This is the machinery the p99.999 URLLC reliability tail needs on runs of
// millions of packets.
//
// Storage has two forms, the sparse/dense split of HdrHistogram and DDSketch.
// A histogram starts sparse: up to logSparsePairs (bucket, count) pairs kept
// sorted inline, so a per-UE histogram of a few latencies hundreds of µs
// apart holds a few pairs rather than hundreds of buckets. The first sample
// in a bucket beyond those pairs promotes the histogram, once, to the dense
// form: a directory of octave pages, each page one octave's logSubBuckets
// counts (the linear head is the first two pages). A page is allocated when
// a sample first lands in it and never moves, so no bucket is ever copied,
// and storage is bounded by the octaves the data touches, never by the run
// length. Every read walks the non-empty buckets in ascending order through
// one iterator, so the form never shows in what the histogram reports.
//
// Exact minimum and maximum are tracked on the side, so Quantile(0) and
// Quantile(1) are exact, and interior quantiles are clamped into [min, max].
const (
	// logSubBucketBits fixes the relative resolution: each octave
	// [2^e, 2^(e+1)) holds 2^logSubBucketBits sub-buckets.
	logSubBucketBits = 10
	logSubBuckets    = 1 << logSubBucketBits // sub-buckets per octave

	// logLinearMax is the top of the unit-width linear head: values below
	// it get exact (width-1) buckets.
	logLinearBits = logSubBucketBits + 1
	logLinearMax  = 1 << logLinearBits

	// logSparsePairs is how many distinct buckets a histogram holds inline
	// before it promotes to the dense form. Eight 16-byte pairs (128 B)
	// cost a sixty-fourth of one 8 KiB page. Eight is also twice the four
	// samples per UE of benchmark/'s 500-UE traced cell, so per-UE
	// histograms stay sparse there, while the busy per-layer timings
	// promote on their ninth bucket and pay one move of eight pairs.
	logSparsePairs = 8

	// logPages is the page directory's length. Bucket idx lives in page
	// idx/logSubBuckets, and the 54 pages up to logIndex(math.MaxInt64)
	// cover every value; two more fill the allocator's 448 B size class, so
	// the directory costs exactly what StorageBytes counts.
	logPages = 56
)

// LogHistogram's zero value is an empty histogram, ready to use: holders
// keep histograms by value (the labeled families carve them in chunks).
// All LogHistograms share one bucket geometry and therefore merge with each
// other.
type LogHistogram struct {
	// sparse[:nsparse] are the sparse form's buckets, ascending by index.
	sparse  [logSparsePairs]logPair
	nsparse int
	// pages[p][i] is bucket p·logSubBuckets+i in the dense form; a page is
	// nil until a sample lands in it. The histogram is dense exactly when
	// len(pages) > 0. Reset empties the pages and keeps them (pages[:cap]),
	// so every page past len is nil or all zero.
	pages    []*logPage
	total    int64
	sum      float64 // for mean / Prometheus _sum; float to avoid overflow
	min, max int64   // exact observed extrema (valid when total > 0)
}

// logPage is one octave's sub-bucket counts in the dense form.
type logPage [logSubBuckets]int64

// logPair is one non-empty bucket of the sparse form.
type logPair struct {
	idx int32 // bucket index; logIndex of any int64 is below 2^16
	n   int64
}

// logIndex maps a value to its bucket index. Negative values clamp to 0.
func logIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < logLinearMax {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // 2^e ≤ v < 2^(e+1), e ≥ logLinearBits
	shift := uint(e - logSubBucketBits)
	return logLinearMax + (e-logLinearBits)*logSubBuckets + int((v-int64(1)<<e)>>shift)
}

// logLowerBound is the inverse of logIndex: the smallest value mapping to
// bucket idx.
func logLowerBound(idx int) int64 {
	if idx < logLinearMax {
		return int64(idx)
	}
	i := idx - logLinearMax
	e := logLinearBits + i/logSubBuckets
	sub := int64(i % logSubBuckets)
	return int64(1)<<e + sub<<(e-logSubBucketBits)
}

// logWidth is the width of bucket idx.
func logWidth(idx int) int64 {
	if idx < logLinearMax {
		return 1
	}
	e := logLinearBits + (idx-logLinearMax)/logSubBuckets
	return int64(1) << (e - logSubBucketBits)
}

// BucketWidth returns the width of the bucket containing v — the accuracy
// bound of any quantile that lands in that bucket.
func (h *LogHistogram) BucketWidth(v int64) int64 { return logWidth(logIndex(v)) }

// Add records one value. Negative values clamp to 0 for binning but are
// counted; durations in this repository are never negative.
func (h *LogHistogram) Add(v int64) {
	h.addBucket(logIndex(v), 1)
	h.total++
	h.sum += float64(v)
	if h.total == 1 || v < h.min {
		h.min = v
	}
	if h.total == 1 || v > h.max {
		h.max = v
	}
}

// addBucket adds c samples to bucket idx, in the sparse pairs while they
// hold it and in its page otherwise, allocating the page on its first
// sample.
func (h *LogHistogram) addBucket(idx int, c int64) {
	if len(h.pages) == 0 {
		if h.addSparse(idx, c) {
			return
		}
		h.promote()
	}
	pg := h.pages[idx>>logSubBucketBits]
	if pg == nil {
		pg = new(logPage)
		h.pages[idx>>logSubBucketBits] = pg
	}
	pg[idx&(logSubBuckets-1)] += c
}

// addSparse adds c samples to bucket idx's pair, inserting the pair in
// order; it reports false, changing nothing, when idx is new and every
// pair is taken.
func (h *LogHistogram) addSparse(idx int, c int64) bool {
	n := h.nsparse
	i := 0
	for i < n && int(h.sparse[i].idx) < idx {
		i++
	}
	if i < n && int(h.sparse[i].idx) == idx {
		h.sparse[i].n += c
		return true
	}
	if n == logSparsePairs {
		return false
	}
	copy(h.sparse[i+1:n+1], h.sparse[i:n])
	h.sparse[i] = logPair{idx: int32(idx), n: c}
	h.nsparse++
	return true
}

// promote makes the sparse histogram dense, moving its pairs into their
// pages. The directory is allocated once, on the first promotion, and
// kept by Reset with any pages it holds.
func (h *LogHistogram) promote() {
	if cap(h.pages) == 0 {
		h.pages = make([]*logPage, logPages)
	}
	h.pages = h.pages[:logPages]
	pairs := h.sparse[:h.nsparse]
	h.nsparse = 0
	for _, p := range pairs {
		h.addBucket(int(p.idx), p.n)
	}
}

// nonEmpty yields every non-empty bucket's index and count in ascending
// order: the one walk behind every read and every merge, whichever form
// holds the buckets.
func (h *LogHistogram) nonEmpty() iter.Seq2[int, int64] {
	return func(yield func(int, int64) bool) {
		for _, p := range h.sparse[:h.nsparse] {
			if !yield(int(p.idx), p.n) {
				return
			}
		}
		for p, pg := range h.pages {
			if pg == nil {
				continue
			}
			for i, c := range pg {
				if c != 0 && !yield(p<<logSubBucketBits|i, c) {
					return
				}
			}
		}
	}
}

// AddDuration records a duration as integer nanoseconds.
func (h *LogHistogram) AddDuration(d sim.Duration) { h.Add(int64(d)) }

// Reset empties the histogram in place and returns it to the sparse form.
// The directory and its pages are kept, emptied, so a reset histogram
// records its next run, promotion included, without allocating: the
// recycling half of the observability layer's steady-state zero-allocation
// contract.
func (h *LogHistogram) Reset() {
	for _, pg := range h.pages {
		if pg != nil {
			clear(pg[:])
		}
	}
	*h = LogHistogram{pages: h.pages[:0]}
}

// StorageBytes returns the bytes the histogram has allocated for buckets
// beyond its own struct: the page directory and every page it holds. It is
// 0 until the first promotion, and Reset keeps it — the footprint the
// observability layer's self-accounting reports.
func (h *LogHistogram) StorageBytes() int64 {
	b := int64(cap(h.pages)) * int64(unsafe.Sizeof((*logPage)(nil)))
	for _, pg := range h.pages[:cap(h.pages)] {
		if pg != nil {
			b += int64(unsafe.Sizeof(*pg))
		}
	}
	return b
}

// N returns the number of recorded values.
func (h *LogHistogram) N() int64 { return h.total }

// Sum returns the sum of all recorded values (float; exact for totals below
// 2^53).
func (h *LogHistogram) Sum() float64 { return h.sum }

// Mean returns the exact sample mean (0 when empty).
func (h *LogHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the exact largest recorded value (0 when empty).
func (h *LogHistogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) under the floor-index
// nearest-rank rule: the bucket holding the sample at rank ⌊q·(n−1)⌋. The returned value is the bucket midpoint clamped into
// [Min, Max], so it is within one bucket width of the exact-rank sample;
// q ≤ 0 and q ≥ 1 return the exact extrema. An empty histogram returns 0.
func (h *LogHistogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(q * float64(h.total-1))
	var cum int64
	for idx, c := range h.nonEmpty() {
		cum += c
		if cum > rank {
			mid := logLowerBound(idx) + logWidth(idx)/2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max // unreachable when counts/total are consistent
}

// Merge adds every sample of o into h. Bucket geometry is shared by
// construction, so the merge is exact: h ends up identical to a histogram
// that observed both sample streams.
func (h *LogHistogram) Merge(o *LogHistogram) {
	if o == nil || o.total == 0 {
		return
	}
	for idx, c := range o.nonEmpty() {
		h.addBucket(idx, c)
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.total == 0 || o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
}

// Buckets calls f for every non-empty bucket in ascending value order with
// the bucket's inclusive upper bound and the cumulative count of samples at
// or below it — the shape Prometheus histogram exposition wants.
func (h *LogHistogram) Buckets(f func(upperInclusive int64, cumulative int64)) {
	var cum int64
	for idx, c := range h.nonEmpty() {
		cum += c
		f(logLowerBound(idx)+logWidth(idx)-1, cum)
	}
}

// StdApprox returns an approximate standard deviation computed from bucket
// midpoints — good to the bucket resolution, retained-sample-free.
func (h *LogHistogram) StdApprox() float64 {
	if h.total < 2 {
		return 0
	}
	mean := h.Mean()
	var ss float64
	for idx, c := range h.nonEmpty() {
		mid := float64(logLowerBound(idx)) + float64(logWidth(idx))/2
		ss += float64(c) * (mid - mean) * (mid - mean)
	}
	return math.Sqrt(ss / float64(h.total))
}
