package workload

import (
	"testing"

	"urllcsim/internal/sim"
)

func TestFleetStaggerAndOrder(t *testing.T) {
	rng := sim.NewRNG(8)
	const n, period = 8, 20 * sim.Millisecond
	f := NewFleet(n, period, 0, 32, rng)
	pkts := TakeFleet(f, 3*n)
	prev := sim.Time(-1)
	seen := map[int]int{}
	for i, p := range pkts {
		if p.Arrival < prev {
			t.Fatalf("packet %d at %v before previous %v", i, p.Arrival, prev)
		}
		prev = p.Arrival
		if p.ID != i {
			t.Fatalf("packet %d has ID %d", i, p.ID)
		}
		seen[p.UE]++
		// Zero jitter: machine u of cycle c fires exactly at c·P + u·P/N.
		cycle, u := i/n, p.UE
		want := sim.Time(int64(cycle)*int64(period) + int64(period)*int64(u)/int64(n))
		if p.Arrival != want {
			t.Fatalf("machine %d cycle %d at %v, want %v", u, cycle, p.Arrival, want)
		}
	}
	for u := 0; u < n; u++ {
		if seen[u] != 3 {
			t.Fatalf("machine %d fired %d times, want 3", u, seen[u])
		}
	}
}

func TestFleetJitterIndependentOfN(t *testing.T) {
	// Machine i's jitter stream must not depend on fleet size: the same
	// base seed gives machine 2 the same draws in an 4-machine and an
	// 8-machine fleet (per-machine forked RNGs).
	const period, jit = 10 * sim.Millisecond, 200 * sim.Microsecond
	offsets := func(n int) []sim.Duration {
		f := NewFleet(n, period, jit, 16, sim.NewRNG(99))
		var out []sim.Duration
		for _, p := range TakeFleet(f, 5*n) {
			if p.UE == 2 {
				cycle := int64(p.Arrival) / int64(period)
				base := sim.Time(cycle*int64(period) + int64(period)*2/int64(n))
				out = append(out, sim.Duration(p.Arrival-base))
			}
		}
		return out
	}
	a, b := offsets(4), offsets(8)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("machine 2 fired %d/%d times, want 5/5", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cycle %d jitter differs across fleet sizes: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= jit {
			t.Fatalf("cycle %d jitter %v outside [0,%v)", i, a[i], jit)
		}
	}
}

func TestBadParamsPanic(t *testing.T) {
	rng := sim.NewRNG(7)
	for name, f := range map[string]func(){
		"no machines":   func() { NewFleet(0, sim.Millisecond, 0, 1, rng) },
		"zero period":   func() { NewFleet(4, 0, 0, 1, rng) },
		"negative size": func() { NewFleet(-1, sim.Millisecond, 0, 1, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted bad params", name)
				}
			}()
			f()
		}()
	}
}
