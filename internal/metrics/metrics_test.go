package metrics

import (
	"math"
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
	if a.Max() != 9 {
		t.Fatalf("max = %v", a.Max())
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if a.Std() != 0 || a.Mean() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	a.Add(42)
	if a.Std() != 0 || a.Mean() != 42 || a.Max() != 42 {
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

// TestAccumulatorEmptyMinQuirk documents the footgun: Max() of an empty
// accumulator returns 0, indistinguishable from a real 0 — N() is the only
// way to tell.
func TestAccumulatorEmptyMinQuirk(t *testing.T) {
	var empty, real Accumulator
	real.Add(0)
	if empty.Max() != 0 {
		t.Fatal("empty Max changed from documented 0")
	}
	if real.Max() != empty.Max() {
		t.Fatal("quirk assumption broken")
	}
	if empty.N() != 0 || real.N() != 1 {
		t.Fatal("N() must disambiguate empty from zero-valued")
	}
	// Negative-only data returns a negative Max — proving 0 is not a
	// floor, just the empty value.
	var neg Accumulator
	neg.Add(-3.5)
	if neg.Max() != -3.5 {
		t.Fatalf("negative observations mishandled: max=%v", neg.Max())
	}
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
	if a.Max() != seq.Max() {
		t.Fatalf("merged max %v, sequential %v", a.Max(), seq.Max())
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
