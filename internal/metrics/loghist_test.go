package metrics

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

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
			h := new(LogHistogram)
			for _, v := range c.samples {
				h.Add(v)
			}
			if h.N() != int64(len(c.samples)) {
				t.Fatalf("N = %d, want %d", h.N(), len(c.samples))
			}
			sorted := append([]int64(nil), c.samples...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			if h.min != sorted[0] || h.Max() != sorted[len(sorted)-1] {
				t.Fatalf("min/max = %d/%d, want %d/%d", h.min, h.Max(), sorted[0], sorted[len(sorted)-1])
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
	h := new(LogHistogram)
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
	whole := new(LogHistogram)
	parts := make([]*LogHistogram, shards)
	for i := range parts {
		parts[i] = new(LogHistogram)
	}
	for i := 0; i < 200_000; i++ {
		v := int64(r.next() % 2_000_000)
		whole.Add(v)
		parts[i%shards].Add(v)
	}
	merged := new(LogHistogram)
	for _, p := range parts {
		merged.Merge(p)
	}
	merged.Merge(new(LogHistogram)) // merging an empty histogram is a no-op
	if merged.N() != whole.N() || merged.min != whole.min || merged.Max() != whole.Max() {
		t.Fatalf("merged N/min/max = %d/%d/%d, want %d/%d/%d",
			merged.N(), merged.min, merged.Max(), whole.N(), whole.min, whole.Max())
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

// TestLogHistogramWindow: a narrow band stays in the sparse pairs, and the
// order values arrive in (pairs inserted below, above, by Merge, after a
// Reset) never changes what the histogram reports.
func TestLogHistogramWindow(t *testing.T) {
	type bucket struct{ ub, cum int64 }
	view := func(h *LogHistogram) ([]bucket, float64, int64) {
		var bs []bucket
		h.Buckets(func(ub, cum int64) { bs = append(bs, bucket{ub, cum}) })
		return bs, h.StdApprox(), h.Quantile(0.5)
	}
	r := lcg(3)
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = 1_000_000 + int64(r.next()%1000) // 1 ms ± 1 µs: a handful of buckets
	}
	asc := new(LogHistogram)
	for _, v := range vals {
		asc.Add(v)
	}
	if len(asc.pages) > 0 || asc.nsparse > 4 {
		t.Fatalf("a 1 µs band at 1 ms stored %d pairs and went dense: %v, want ≤ 4 pairs",
			asc.nsparse, len(asc.pages) > 0)
	}

	desc, lo, hi := new(LogHistogram), new(LogHistogram), new(LogHistogram)
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
	merged := new(LogHistogram)
	merged.Merge(hi)
	merged.Merge(lo) // inserts pairs below the ones held
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

// TestLogHistogramMemoryBounded: memory is O(octaves in the value range),
// not O(samples) — a million samples over 10 ms promote to one page per
// octave touched.
func TestLogHistogramMemoryBounded(t *testing.T) {
	h := new(LogHistogram)
	r := lcg(99)
	for i := 0; i < 1_000_000; i++ {
		h.Add(int64(r.next() % 10_000_000)) // 0–10 ms in ns
	}
	// 10 ms < 2^24: the linear head's two pages + 13 octaves.
	const maxPages = 2 + 24 - logLinearBits
	if got, bound := h.StorageBytes(), int64(logPages*8+maxPages*8*logSubBuckets); len(h.pages) == 0 || got > bound {
		t.Fatalf("storage grew to %d B for 1e6 samples (want dense, bound %d B)", got, bound)
	}
}

// TestLogHistogramRefillZeroAlloc: a histogram that stays sparse and one that
// promotes both record their next run after Reset without allocating — the
// promoted one back into the pages its last run allocated.
func TestLogHistogramRefillZeroAlloc(t *testing.T) {
	few := []int64{400_000, 450_000, 900_000}
	many := make([]int64, 1000)
	r := lcg(5)
	for i := range many {
		many[i] = int64(r.next() % 2_000_000)
	}
	for _, c := range []struct {
		name  string
		vals  []int64
		dense bool
	}{{"sparse", few, false}, {"promoted", many, true}} {
		h := new(LogHistogram)
		fill := func() {
			h.Reset()
			for _, v := range c.vals {
				h.Add(v)
			}
		}
		fill()
		if dense := len(h.pages) > 0; dense != c.dense {
			t.Fatalf("%s: dense = %v after %d samples", c.name, dense, len(c.vals))
		}
		if allocs := testing.AllocsPerRun(20, fill); allocs != 0 {
			t.Errorf("%s: refilling a reset histogram allocated %.0f times", c.name, allocs)
		}
	}
}

// TestLogHistogramStorageBytes: the footprint is 0 while sparse, and the
// directory plus one page per octave touched once promoted; Reset keeps it.
func TestLogHistogramStorageBytes(t *testing.T) {
	const dir, page = logPages * 8, logSubBuckets * 8
	h := new(LogHistogram)
	if got := h.StorageBytes(); got != 0 {
		t.Fatalf("empty: %d B, want 0", got)
	}
	h.Add(500_000)
	h.Add(700_000)
	if got := h.StorageBytes(); got != 0 {
		t.Fatalf("sparse: %d B, want 0 (the pairs are inline)", got)
	}
	for i := int64(0); i < logSparsePairs; i++ {
		h.Add(1_000 * (i + 1)) // 1…8 µs: pages 0, 1 (head), 2 and 3
	}
	if len(h.pages) == 0 {
		t.Fatal("10 distinct buckets did not promote")
	}
	// 500 µs and 700 µs lie in octaves 2^18 and 2^19: pages 9 and 10.
	if got, want := h.StorageBytes(), int64(dir+6*page); got != want {
		t.Fatalf("promoted: %d B, want %d (directory + 6 pages)", got, want)
	}
	h.Reset()
	if got, want := h.StorageBytes(), int64(dir+6*page); got != want || len(h.pages) != 0 {
		t.Fatalf("reset: %d B, want %d with the pages kept and the form sparse", got, want)
	}
}

// TestLogHistogramSize: every per-UE family row allocates one histogram, so
// its struct stays in the allocator's 192 B size class, and the directory
// reaches the page of the largest int64.
func TestLogHistogramSize(t *testing.T) {
	if got := unsafe.Sizeof(LogHistogram{}); got != 192 {
		t.Fatalf("LogHistogram is %d bytes, want 192", got)
	}
	if last := logIndex(math.MaxInt64) >> logSubBucketBits; last >= logPages {
		t.Fatalf("the largest value lands in page %d, past the %d-page directory", last, logPages)
	}
}

// TestLogHistogramPageAllocs: a dense fill allocates exactly what
// StorageBytes reports — the directory once and each page once, with no
// bucket ever copied — and a refill after Reset allocates nothing. A
// contiguous window that regrows as the range widens allocates more than
// it keeps, and fails the first check.
func TestLogHistogramPageAllocs(t *testing.T) {
	vals := make([]int64, 20_000)
	r := lcg(11)
	for i := range vals {
		// Ascending octaves, so every new value widens the range upward.
		vals[i] = int64(i)*100 + int64(r.next()%100)
	}
	h := new(LogHistogram)
	fill := func() {
		for _, v := range vals {
			h.Add(v)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fill()
	runtime.ReadMemStats(&after)
	if got, want := int64(after.TotalAlloc-before.TotalAlloc), h.StorageBytes(); got != want || want == 0 {
		t.Fatalf("a dense fill allocated %d B, want StorageBytes %d B", got, want)
	}
	if allocs := testing.AllocsPerRun(5, func() { h.Reset(); fill() }); allocs != 0 {
		t.Fatalf("a refill after Reset allocated %.0f times", allocs)
	}
}

// FuzzLogHistogramForms is the differential test of the two storage forms:
// histograms filled, merged into each other and reset by arbitrary
// operations — so sparse and promoted ones meet in every combination — must
// report exactly what a twin that was paged from its first sample reports,
// and must be sparse exactly while they hold at most logSparsePairs buckets.
// Every dense twin's StorageBytes is its directory plus one page per octave
// it has touched since it was made.
//
// Each operation is three bytes (op, a, b); op's low two bits pick add a
// scaled value, add a value from a few-µs band or around zero, merge, or
// reset, and its upper bits pick the histogram and the variant.
func FuzzLogHistogramForms(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 1, 2, 0x04, 3, 4, 0x02, 0, 0})
	var spread, band []byte
	for i := 0; i < 40; i++ {
		spread = append(spread, byte(i%3)<<2|byte(i%8)<<5, byte(37*i), byte(i))
		band = append(band, 0x21|byte(i%3)<<2, byte(i), byte(7*i))
	}
	merges := []byte{0x02, 0, 0, 0x06, 0, 0, 0x0a, 1, 0, 0x03, 0, 0, 0x02, 1, 0}
	f.Add(spread)
	f.Add(band)
	f.Add(append(append(append([]byte{}, spread...), merges...), band...))
	f.Add(append(append(append([]byte{}, band...), merges...), spread...))

	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 3
		var hs, dense [k]*LogHistogram
		var distinct, touched [k]map[int]bool // buckets since Reset, pages ever
		for i := range hs {
			hs[i], dense[i] = new(LogHistogram), new(LogHistogram)
			distinct[i], touched[i] = map[int]bool{}, map[int]bool{}
		}
		for ; len(data) >= 3; data = data[3:] {
			op, a, b := data[0], data[1], data[2]
			i := int(op>>2) % k
			var v int64
			switch op & 3 {
			case 0: // anywhere from the linear head to 2^23 ns, about 8 ms
				v = int64(uint16(a)|uint16(b)<<8) << (op >> 5)
			case 1: // a few µs band, or the linear head and below zero
				v = int64(int16(uint16(a) | uint16(b)<<8))
				if op&0x20 != 0 {
					v = 500_000 + int64(a)<<4 + int64(b)
				}
			case 2:
				j := (i + 1 + int(a)%(k-1)) % k
				hs[j].Merge(hs[i])
				if len(dense[j].pages) == 0 && dense[i].N() > 0 {
					dense[j].promote()
				}
				dense[j].Merge(dense[i])
				for idx := range distinct[i] {
					distinct[j][idx] = true
					touched[j][idx>>logSubBucketBits] = true
				}
				continue
			case 3:
				hs[i].Reset()
				dense[i].Reset()
				clear(distinct[i])
				continue
			}
			hs[i].Add(v)
			if d := dense[i]; len(d.pages) == 0 {
				d.promote() // paged from its first sample
			}
			dense[i].Add(v)
			distinct[i][logIndex(v)] = true
			touched[i][logIndex(v)>>logSubBucketBits] = true
		}
		for i := range hs {
			h, d := hs[i], dense[i]
			if sparse := len(h.pages) == 0; sparse != (len(distinct[i]) <= logSparsePairs) {
				t.Fatalf("hist %d: sparse = %v with %d distinct buckets", i, sparse, len(distinct[i]))
			}
			if d.N() > 0 && len(d.pages) == 0 {
				t.Fatalf("hist %d: the dense twin went sparse", i)
			}
			want := int64(0)
			if len(touched[i]) > 0 {
				want = logPages*8 + int64(len(touched[i]))*logSubBuckets*8
			}
			if got := d.StorageBytes(); got != want {
				t.Fatalf("hist %d: the dense twin's StorageBytes = %d, want %d (%d pages touched)",
					i, got, want, len(touched[i]))
			}
			for j := 1; j < h.nsparse; j++ {
				if h.sparse[j-1].idx >= h.sparse[j].idx {
					t.Fatalf("hist %d: sparse pairs out of order: %v", i, h.sparse[:h.nsparse])
				}
			}
			if got, want := formsView(h), formsView(d); got != want {
				t.Fatalf("hist %d: sparse-first %s\ndense-first %s", i, got, want)
			}
		}
	})
}

// formsView renders every read of h, floats bit for bit.
func formsView(h *LogHistogram) string {
	var s strings.Builder
	fmt.Fprintf(&s, "N=%d sum=%x min=%d max=%d std=%x q=",
		h.N(), math.Float64bits(h.Sum()), h.min, h.Max(), math.Float64bits(h.StdApprox()))
	for _, q := range []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.99999, 1} {
		fmt.Fprintf(&s, "%d,", h.Quantile(q))
	}
	s.WriteString(" buckets=")
	h.Buckets(func(ub, cum int64) { fmt.Fprintf(&s, "%d:%d,", ub, cum) })
	return s.String()
}

func TestLogHistogramEmptyAndEdges(t *testing.T) {
	h := new(LogHistogram)
	if h.Quantile(0.5) != 0 || h.min != 0 || h.Max() != 0 || h.Mean() != 0 || h.N() != 0 {
		t.Fatal("empty histogram stats not zero")
	}
	h.Buckets(func(int64, int64) { t.Fatal("empty histogram has no buckets") })
	h.Add(-5) // clamps to bucket 0 but is recorded
	if h.N() != 1 || h.min != -5 || h.Quantile(0) != -5 {
		t.Fatalf("negative sample mishandled: N=%d min=%d", h.N(), h.min)
	}
	h2 := new(LogHistogram)
	h2.AddDuration(500 * sim.Microsecond)
	if h2.Quantile(0.99999) != int64(500*sim.Microsecond) {
		t.Fatalf("single-sample p99.999 = %v", h2.Quantile(0.99999))
	}
	if h2.min != 500_000 || h2.Max() != 500_000 || h2.Mean() != 500_000 {
		t.Fatalf("single-sample min/max/mean = %d/%d/%v", h2.min, h2.Max(), h2.Mean())
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
