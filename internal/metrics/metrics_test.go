package metrics

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"urllcsim/internal/sim"
)

func TestAccumulatorMoments(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 || a.Mean() != 5 {
		t.Fatalf("N=%d mean=%v", a.N(), a.Mean())
	}
	if math.Abs(a.Std()-2) > 1e-12 {
		t.Fatalf("std = %v, want 2", a.Std())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if a.Std() != 0 || a.Mean() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	a.Add(42)
	if a.Std() != 0 || a.Mean() != 42 || a.Min() != 42 || a.Max() != 42 {
		t.Fatal("single-sample stats wrong")
	}
}

func TestAccumulatorDurationUnits(t *testing.T) {
	var a Accumulator
	a.AddDuration(484200 * sim.Nanosecond) // the paper's RLC-q mean
	if math.Abs(a.Mean()-484.2) > 1e-9 {
		t.Fatalf("duration recorded as %vµs", a.Mean())
	}
}

// Property: streaming moments match the two-pass computation.
func TestPropertyAccumulatorMatchesTwoPass(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var a Accumulator
		sum := 0.0
		for _, v := range raw {
			a.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, v := range raw {
			ss += (float64(v) - mean) * (float64(v) - mean)
		}
		std := math.Sqrt(ss / float64(len(raw)))
		return math.Abs(a.Mean()-mean) < 1e-6 && math.Abs(a.Std()-std) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(8, 16) // Fig. 6's 0–8 ms axis
	h.Add(0.1)
	h.Add(0.49) // same bin (width 0.5)
	h.Add(0.51)
	h.Add(7.99)
	h.Add(9.5) // overflow
	if h.N() != 5 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[15] != 1 || h.Overflow != 1 {
		t.Fatalf("bins = %v overflow=%d", h.Counts, h.Overflow)
	}
	if math.Abs(h.BinCenter(0)-0.25) > 1e-12 {
		t.Fatalf("bin 0 centre = %v", h.BinCenter(0))
	}
	if math.Abs(h.Probability(0)-0.4) > 1e-12 {
		t.Fatalf("P(bin0) = %v", h.Probability(0))
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(1, 4)
	h.Add(-0.5)
	if h.Counts[0] != 1 {
		t.Fatal("negative value not clamped into bin 0")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram(100, 10)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if p := h.Percentile(0.5); p < 49 || p > 52 {
		t.Fatalf("p50 = %v", p)
	}
	if p := h.Percentile(0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := h.Percentile(1); p != 100 {
		t.Fatalf("p100 = %v", p)
	}
	if got := h.FractionBelow(11); math.Abs(got-0.10) > 1e-12 {
		t.Fatalf("FractionBelow(11) = %v", got)
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
}

// TestPercentileEdgeCases pins the documented floor-index nearest-rank
// semantics across the awkward inputs: empty data, a single sample, heavy
// duplicates, even counts, and out-of-range p.
func TestPercentileEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
	}{
		{"empty", nil, 0.5, 0},
		{"empty p0", nil, 0, 0},
		{"single p0", []float64{7}, 0, 7},
		{"single p50", []float64{7}, 0.5, 7},
		{"single p100", []float64{7}, 1, 7},
		{"negative p clamps to min", []float64{3, 1, 2}, -0.2, 1},
		{"p above 1 clamps to max", []float64{3, 1, 2}, 1.5, 3},
		{"even count takes lower middle", []float64{1, 2, 3, 4}, 0.5, 2}, // ⌊0.5·3⌋ = 1
		{"odd count exact middle", []float64{1, 2, 3}, 0.5, 2},
		{"all duplicates", []float64{5, 5, 5, 5}, 0.99, 5},
		{"duplicates at tail", []float64{1, 9, 9, 9}, 0.5, 9},
		{"p99 of 1..100", seq(1, 100), 0.99, 99}, // ⌊0.99·99⌋ = 98 → value 99
		{"unsorted input", []float64{30, 10, 20}, 0, 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := NewHistogram(1000, 10)
			for _, x := range c.samples {
				h.Add(x)
			}
			if got := h.Percentile(c.p); got != c.want {
				t.Fatalf("Percentile(%v) over %v = %v, want %v", c.p, c.samples, got, c.want)
			}
		})
	}
}

func seq(lo, hi int) []float64 {
	s := make([]float64, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		s = append(s, float64(i))
	}
	return s
}

// TestHistogramOverflowBoundary: the overflow boundary is inclusive —
// x == MaxValue must not index one past the last bin.
func TestHistogramOverflowBoundary(t *testing.T) {
	h := NewHistogram(8, 16)
	h.Add(8)                    // exactly MaxValue
	h.Add(math.Nextafter(8, 0)) // just below
	if h.Overflow != 1 {
		t.Fatalf("x == MaxValue not counted as overflow: %+v", h)
	}
	if h.Counts[15] != 1 {
		t.Fatalf("x just below MaxValue missed last bin: %v", h.Counts)
	}
	// The raw sample is retained, so percentiles still see the boundary value.
	if got := h.Percentile(1); got != 8 {
		t.Fatalf("p100 = %v, want 8", got)
	}
}

// TestHistogramNegativeSamplesRetained: binning clamps, statistics don't.
func TestHistogramNegativeSamplesRetained(t *testing.T) {
	h := NewHistogram(1, 4)
	h.Add(-2)
	h.Add(2) // overflow bin-wise
	if h.Counts[0] != 1 || h.Overflow != 1 {
		t.Fatalf("binning wrong: %+v", h)
	}
	if h.Percentile(0) != -2 || h.Mean() != 0 {
		t.Fatalf("raw samples not retained: p0=%v mean=%v", h.Percentile(0), h.Mean())
	}
	if got := h.FractionBelow(0); got != 0.5 {
		t.Fatalf("FractionBelow(0) = %v, want 0.5", got)
	}
}

// TestAccumulatorEmptyMinQuirk documents the footgun: Min()/Max() of an
// empty accumulator return 0, indistinguishable from a real 0 — N() is the
// only way to tell.
func TestAccumulatorEmptyMinQuirk(t *testing.T) {
	var empty, real Accumulator
	real.Add(0)
	if empty.Min() != 0 || empty.Max() != 0 {
		t.Fatal("empty Min/Max changed from documented 0")
	}
	if real.Min() != empty.Min() {
		t.Fatal("quirk assumption broken")
	}
	if empty.N() != 0 || real.N() != 1 {
		t.Fatal("N() must disambiguate empty from zero-valued")
	}
	// Negative-only data would return a negative Min — proving 0 is not a
	// floor, just the empty value.
	var neg Accumulator
	neg.Add(-3.5)
	if neg.Min() != -3.5 || neg.Max() != -3.5 {
		t.Fatalf("negative observations mishandled: min=%v max=%v", neg.Min(), neg.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1, 4)
	if h.Percentile(0.5) != 0 || h.FractionBelow(1) != 0 || h.Mean() != 0 || h.Probability(0) != 0 {
		t.Fatal("empty histogram stats not zero")
	}
}

func TestHistogramAddDurationMs(t *testing.T) {
	h := NewHistogram(8, 16)
	h.AddDuration(1500 * sim.Microsecond)
	if h.Counts[3] != 1 { // 1.5 ms → bin [1.5,2.0) with 0.5 ms bins
		t.Fatalf("1.5ms landed in %v", h.Counts)
	}
}

func TestHistogramASCII(t *testing.T) {
	h := NewHistogram(2, 4)
	h.Add(0.1)
	h.Add(0.2)
	h.Add(1.1)
	h.Add(5) // overflow
	s := h.ASCII(20)
	if !strings.Contains(s, "#") || !strings.Contains(s, "overflow") {
		t.Fatalf("ASCII rendering:\n%s", s)
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad histogram args accepted")
		}
	}()
	NewHistogram(0, 10)
}

func TestReliability(t *testing.T) {
	r := Reliability{Deadline: 500 * sim.Microsecond}
	for i := 0; i < 99999; i++ {
		r.Record(true, 400*sim.Microsecond)
	}
	r.Record(true, 600*sim.Microsecond) // one miss
	if r.Offered != 100000 || r.Met != 99999 {
		t.Fatalf("counts: %+v", r)
	}
	if math.Abs(r.Value()-0.99999) > 1e-12 {
		t.Fatalf("reliability = %v", r.Value())
	}
	if math.Abs(r.Nines()-5) > 0.01 {
		t.Fatalf("nines = %v", r.Nines())
	}
	if !r.MeetsURLLC() {
		t.Fatal("99.999% must meet URLLC")
	}
	r.Record(false, 0)
	if r.Lost != 1 || r.MeetsURLLC() {
		t.Fatal("loss accounting wrong")
	}
}

func TestReliabilityEdges(t *testing.T) {
	r := Reliability{Deadline: sim.Millisecond}
	if r.Value() != 0 || r.Nines() != 0 {
		t.Fatal("empty reliability not zero")
	}
	r.Record(true, sim.Microsecond)
	if r.Nines() != 9 {
		t.Fatalf("perfect reliability nines = %v, want capped 9", r.Nines())
	}
	// Deadline boundary is inclusive.
	r2 := Reliability{Deadline: sim.Millisecond}
	r2.Record(true, sim.Millisecond)
	if r2.Met != 1 {
		t.Fatal("exact-deadline delivery must count")
	}
}

func TestTableRendering(t *testing.T) {
	var a, b Accumulator
	a.Add(4.65)
	b.Add(484.2)
	s := Table([]struct {
		Label string
		Acc   *Accumulator
	}{{"SDAP", &a}, {"RLC-q", &b}})
	if !strings.Contains(s, "SDAP") || !strings.Contains(s, "484.20") || !strings.Contains(s, "Mean") {
		t.Fatalf("table:\n%s", s)
	}
}

func TestAccumulatorMergeMatchesSequential(t *testing.T) {
	rng := sim.NewRNG(7)
	var seq, a, b Accumulator
	for i := 0; i < 1000; i++ {
		x := rng.Normal(50, 12)
		seq.Add(x)
		if i%3 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != seq.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), seq.N())
	}
	if math.Abs(a.Mean()-seq.Mean()) > 1e-9 || math.Abs(a.Std()-seq.Std()) > 1e-9 {
		t.Fatalf("merged moments %v/%v, sequential %v/%v", a.Mean(), a.Std(), seq.Mean(), seq.Std())
	}
	if a.Min() != seq.Min() || a.Max() != seq.Max() {
		t.Fatalf("merged min/max %v/%v, sequential %v/%v", a.Min(), a.Max(), seq.Min(), seq.Max())
	}
}

func TestAccumulatorMergeEmptySides(t *testing.T) {
	var empty, full Accumulator
	full.Add(3)
	full.Add(5)
	got := full
	got.Merge(&empty) // no-op
	if got != full {
		t.Fatalf("merging an empty accumulator changed state: %+v", got)
	}
	var dst Accumulator
	dst.Merge(&full) // adopt
	if dst != full {
		t.Fatalf("empty destination must adopt the source: %+v vs %+v", dst, full)
	}
	dst.Merge(nil) // nil-safe
	if dst != full {
		t.Fatal("nil merge changed state")
	}
}

// TestHistogramMergeUnderCapIsConcatenation: a merged histogram retains
// exactly the concatenation of both streams — bins, overflow, N and every
// sample match a histogram that observed both streams sequentially. (Only
// the running float sum may differ in the last bits, because merging adds
// two partial sums instead of 2000 individual values.)
func TestHistogramMergeUnderCapIsConcatenation(t *testing.T) {
	rng := sim.NewRNG(11)
	seq := NewHistogram(8, 32)
	a := NewHistogram(8, 32)
	b := NewHistogram(8, 32)
	var xs []float64
	for i := 0; i < 2000; i++ {
		xs = append(xs, rng.Uniform(0, 10)) // includes overflow values
	}
	for _, x := range xs[:800] {
		seq.Add(x)
		a.Add(x)
	}
	for _, x := range xs[800:] {
		seq.Add(x)
		b.Add(x)
	}
	a.Merge(b)
	if !reflect.DeepEqual(a.Counts, seq.Counts) || a.Overflow != seq.Overflow || a.N() != seq.N() {
		t.Fatalf("merge bins differ from sequential feed:\nmerged %v +%d\nsequential %v +%d",
			a.Counts, a.Overflow, seq.Counts, seq.Overflow)
	}
	if !reflect.DeepEqual(a.samples, seq.samples) {
		t.Fatalf("merge must retain every sample in stream order: %d vs %d", len(a.samples), len(seq.samples))
	}
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		if a.Percentile(p) != seq.Percentile(p) {
			t.Fatalf("p%v differs: %v vs %v", p*100, a.Percentile(p), seq.Percentile(p))
		}
	}
	if math.Abs(a.Mean()-seq.Mean()) > 1e-12 {
		t.Fatalf("merged mean %v, sequential %v", a.Mean(), seq.Mean())
	}
}

func TestHistogramMergeGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("geometry mismatch accepted")
		}
	}()
	a := NewHistogram(8, 32)
	b := NewHistogram(8, 16)
	b.Add(1)
	a.Merge(b)
}

func TestHistogramMergeEmptyAndNil(t *testing.T) {
	a := NewHistogram(8, 32)
	a.Add(1)
	want := NewHistogram(8, 32)
	want.Add(1)
	a.Merge(nil)
	a.Merge(NewHistogram(8, 32))
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("empty/nil merges changed state: %+v", a)
	}
}

func TestReliabilityMerge(t *testing.T) {
	a := Reliability{Deadline: 500 * sim.Microsecond}
	b := Reliability{Deadline: 500 * sim.Microsecond}
	a.Record(true, 400*sim.Microsecond)
	a.Record(false, 0)
	b.Record(true, 600*sim.Microsecond)
	b.Record(true, 100*sim.Microsecond)
	a.Merge(&b)
	if a.Offered != 4 || a.Met != 2 || a.Lost != 1 {
		t.Fatalf("merged counts wrong: %+v", a)
	}
	a.Merge(nil)
	if a.Offered != 4 {
		t.Fatal("nil merge changed state")
	}
}

func TestReliabilityMergeDeadlineMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("deadline mismatch accepted")
		}
	}()
	a := Reliability{Deadline: sim.Millisecond}
	b := Reliability{Deadline: 2 * sim.Millisecond}
	a.Merge(&b)
}
