package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	// Out of order on purpose: quantile sorts a copy.
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 3.25}, {0.5, 5.5}, {0.75, 7.75}, {1, 10},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 || xs[9] != 5 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := quantile([]float64{4}, 0.75); got != 4 {
		t.Errorf("quantile of one value = %v, want 4", got)
	}
}

func TestSummaryDeltaGap(t *testing.T) {
	base := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // median 5.5, IQR 4.5
	for _, c := range []struct {
		b, c      []float64
		delta, gp string
	}{
		{base, []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, "+163.6 %", "2.0"},
		{base, base, "+0.0 %", "0"},
		{[]float64{2, 2, 2, 2}, []float64{2, 2, 2, 2}, "+0.0 %", "0"},
		{[]float64{2, 2, 2, 2}, []float64{1, 1, 1, 1}, "-50.0 %", "∞"},
		{[]float64{0, 0, 0, 0}, []float64{1, 1, 1, 1}, "—", "∞"},
	} {
		if got := delta(c.b, c.c); got != c.delta {
			t.Errorf("delta(%v, %v) = %q, want %q", c.b, c.c, got, c.delta)
		}
		if got := gapIQR(c.b, c.c); got != c.gp {
			t.Errorf("gapIQR(%v, %v) = %q, want %q", c.b, c.c, got, c.gp)
		}
	}
	if got, want := summary(base), "5.5 [3.25, 7.75]"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}

func TestWins(t *testing.T) {
	b := []float64{1, 2, 3, 4}
	c := []float64{2, 2, 1, 4} // better, tie, worse, tie when higher is better
	if got := wins(b, c, true); got != 1 {
		t.Errorf("wins higher = %d, want 1", got)
	}
	if got := wins(b, c, false); got != 1 {
		t.Errorf("wins lower = %d, want 1", got)
	}
	if got := wins(b, b, true) + wins(b, b, false); got != 0 {
		t.Errorf("all ties won %d pairs, want 0", got)
	}
}

func TestOpCountAdd(t *testing.T) {
	var c opCount
	runs := []string{
		"testbed-ping: 10 ops\ncell-dynamic: 9 ops\n" + `{"correct":true,"attempted":19,"failed":0,"metrics":{}}`,
		`{"correct":false,"attempted":7,"failed":2,"metrics":{}}`,
	}
	for _, out := range runs {
		if err := c.add(out); err != nil {
			t.Fatal(err)
		}
	}
	if c != (opCount{attempted: 26, failed: 2}) {
		t.Errorf("opCount = %+v, want 26 attempted, 2 failed", c)
	}
	if err := c.add("done\nnot json"); err == nil {
		t.Error("a non-JSON last line was accepted")
	}
}
