package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"urllcsim/internal/obs"
	"urllcsim/internal/sim"
)

func TestSeedDependsOnShardAndBaseOnly(t *testing.T) {
	if Seed(1, 0) == Seed(1, 1) {
		t.Fatal("adjacent shards drew the same seed")
	}
	if Seed(1, 3) != Seed(1, 3) {
		t.Fatal("Seed is not a pure function")
	}
	if Seed(1, 0) == Seed(2, 0) {
		t.Fatal("different base seeds collided on shard 0")
	}
	// Raw increments of the base must not alias a neighbouring shard: the
	// double-mix decorrelates (base, shard) from (base+1, shard-1).
	if Seed(1, 1) == Seed(2, 0) {
		t.Fatal("seed stream aliases across (base, shard) diagonals")
	}
}

func TestSplit(t *testing.T) {
	cases := []struct {
		total, shards int
		want          []int
	}{
		{10, 4, []int{3, 3, 2, 2}},
		{8, 8, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{3, 8, []int{1, 1, 1, 0, 0, 0, 0, 0}},
		{0, 3, []int{0, 0, 0}},
		{5, 0, nil},
	}
	for _, c := range cases {
		got := Split(c.total, c.shards)
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("Split(%d,%d) = %v, want %v", c.total, c.shards, got, c.want)
		}
		sum := 0
		for _, n := range got {
			sum += n
		}
		if c.shards > 0 && sum != c.total {
			t.Fatalf("Split(%d,%d) loses units: %v", c.total, c.shards, got)
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(4) != 4 {
		t.Fatal("explicit width ignored")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("defaulted width must be at least 1")
	}
}

func TestRunReturnsShardOrder(t *testing.T) {
	got, err := Run(8, 100, func(shard int) (int, error) { return shard * shard, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("results[%d] = %d: results not indexed by shard", i, v)
		}
	}
}

// shardWork simulates one shard's measurement load: everything below derives
// only from the shard's Seed-ed RNG, as real sweep jobs must.
func shardWork(shard int) *obs.Registry {
	rng := sim.NewRNG(Seed(42, shard))
	reg := obs.NewRegistry()
	lat := reg.Timing("pkt.latency")
	dist := sim.NewLogNormal(12, 0.5)
	for i := 0; i < 400; i++ {
		d := sim.Duration(dist.Draw(rng))
		lat.Observe(d)
		reg.Counter("pkt.offered").Add(1)
		if rng.Bernoulli(0.01) {
			reg.Counter("pkt.lost").Add(1)
		}
	}
	reg.Gauge("queue.depth").Set(float64(rng.Intn(10)))
	return reg
}

// TestWorkerCountInvariance is the package's headline contract: merging the
// shard registries of a sweep yields a bit-identical registry for any worker
// count. The 1-worker run is the golden output; 2 and 8 workers must
// reproduce it exactly (reflect.DeepEqual follows every unexported field,
// the pkt.latency timing's HDR pages among them).
func TestWorkerCountInvariance(t *testing.T) {
	const shards = 16
	sweepOnce := func(workers int) *obs.Registry {
		regs, err := Run(workers, shards, func(shard int) (*obs.Registry, error) {
			return shardWork(shard), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return MergeRegistries(regs)
	}
	golden := sweepOnce(1)
	if n := golden.Counter("pkt.offered").Value(); n != shards*400 {
		t.Fatalf("merged counter = %d, want %d", n, shards*400)
	}
	for _, workers := range []int{2, 8} {
		got := sweepOnce(workers)
		if !reflect.DeepEqual(golden, got) {
			t.Errorf("%d workers: merged registry differs from sequential:\n-- 1 worker --\n%s-- %d workers --\n%s",
				workers, golden.Summary(), workers, got.Summary())
		}
	}
}

// TestRunConcurrent drives genuinely parallel shards under -race: each shard
// owns its registry (no sharing), and a shared atomic counter proves every
// shard ran exactly once.
func TestRunConcurrent(t *testing.T) {
	var ran atomic.Int64
	res, err := Run(8, 64, func(shard int) (int64, error) {
		reg := shardWork(shard)
		ran.Add(1)
		return reg.Counter("pkt.offered").Value(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 64 {
		t.Fatalf("%d shards ran, want 64", ran.Load())
	}
	for i, v := range res {
		if v != 400 {
			t.Fatalf("shard %d returned %d offered packets, want 400", i, v)
		}
	}
}

func TestRunCollectsAllErrors(t *testing.T) {
	boom := errors.New("boom")
	res, err := Run(4, 6, func(shard int) (int, error) {
		if shard == 2 || shard == 4 {
			return 0, fmt.Errorf("shard-local: %w", boom)
		}
		return shard + 1, nil
	})
	if err == nil {
		t.Fatal("failing shards reported no error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("cause lost: %v", err)
	}
	for _, want := range []string{"shard 2", "shard 4"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not attribute %s", err, want)
		}
	}
	// Healthy shards still ran to completion — a failure never cancels the sweep.
	for _, i := range []int{0, 1, 3, 5} {
		if res[i] != i+1 {
			t.Fatalf("healthy shard %d result clobbered: %d", i, res[i])
		}
	}
	for _, i := range []int{2, 4} {
		if res[i] != 0 {
			t.Fatalf("failed shard %d must return the zero value, got %d", i, res[i])
		}
	}
}

func TestRunRecoversShardPanic(t *testing.T) {
	_, err := Run(2, 4, func(shard int) (int, error) {
		if shard == 1 {
			panic("shard exploded")
		}
		return shard, nil
	})
	if err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panic not converted to an attributed error: %v", err)
	}
}
