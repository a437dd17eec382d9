// Package sweep fans independent simulation replicas across a worker pool
// and merges their per-shard metrics exactly. It is the scaling primitive of
// the repository: the paper's feasibility grids and latency distributions
// are embarrassingly parallel (independent configurations × seeds), so every
// experiment that offers traffic to more than one engine runs its shards
// through Run.
//
// The package enforces one invariant, which the tests pin down and every
// caller may rely on: the merged result of a sweep is bit-identical for any
// worker count. Three design rules make that true:
//
//  1. Each shard owns its world. A job builds its own discrete-event engine,
//     RNG and metrics registry; nothing is shared between concurrently
//     running shards, so goroutine scheduling cannot leak into results.
//
//  2. Seeds derive from the shard index, never the worker. Seed composes two
//     splitmix64 steps over (base, shard), so shard i draws the same random
//     stream whether it runs first on one worker or last on sixteen.
//
//  3. Merging happens in shard order. Run returns results indexed by shard,
//     and the merge helpers fold them left-to-right: counters add,
//     LogHistograms merge exactly by bucket, Histograms concatenate their
//     samples, and Welford accumulators merge deterministically (their
//     combination is order-sensitive only in float rounding, and the order
//     is fixed).
//
// Parallelism is therefore a pure wall-clock speedup, not a semantics
// change: `-parallel 1` is the golden output of `-parallel N`.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"urllcsim/internal/metrics"
	"urllcsim/internal/obs"
	"urllcsim/internal/sim"
)

// Workers resolves a requested worker-pool width: n when positive, otherwise
// GOMAXPROCS — one worker per schedulable CPU.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Seed derives the seed of one shard from the sweep's base seed: two
// composed splitmix64 steps decorrelate the shard streams from each other
// and from the base. The result depends only on (base, shard) — never on
// which worker runs the shard or how many workers exist — which is the first
// half of the worker-count-invariance contract (the other half is merging in
// shard order).
func Seed(base uint64, shard int) uint64 {
	return sim.SplitMix64(sim.SplitMix64(base) + uint64(shard))
}

// Run executes jobs 0…n−1 on a pool of workers goroutines and returns the
// results in shard order. Shards are claimed from a shared counter, so a
// slow shard never stalls the rest of the pool behind a static partition.
// A failing job does not cancel the sweep — remaining shards still run and
// every error is reported, joined in shard order with its shard index
// attached. Results of failed shards are the zero value; callers that merge
// must check the error first.
func Run[R any](workers, n int, job func(shard int) (R, error)) ([]R, error) {
	results := make([]R, n)
	errs := make([]error, n)
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			results[i], errs[i] = runShard(i, job)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					results[i], errs[i] = runShard(i, job)
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("sweep: shard %d: %w", i, err)
		}
	}
	return results, errors.Join(errs...)
}

// runShard runs one job, converting a panic into an error so a crashing
// shard reports like a failing one instead of killing the whole pool.
func runShard[R any](i int, job func(shard int) (R, error)) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return job(i)
}

// MergeRegistries folds shard registries into one fresh registry in shard
// order (counters add, timings merge exactly, gauges last-shard-wins; see
// obs.Registry.Merge). Nil shards — e.g. unobserved replicas — are skipped.
func MergeRegistries(shards []*obs.Registry) *obs.Registry {
	merged := obs.NewRegistry()
	for _, s := range shards {
		merged.Merge(s)
	}
	return merged
}

// MergeHistograms folds shard histograms into one fresh histogram with the
// given geometry, in shard order. Shard histograms must share that geometry.
// Nil shards are skipped.
func MergeHistograms(max float64, bins int, shards []*metrics.Histogram) *metrics.Histogram {
	merged := metrics.NewHistogram(max, bins)
	for _, s := range shards {
		merged.Merge(s)
	}
	return merged
}

// Split distributes total units over shards as evenly as possible: the first
// total%shards shards get one extra unit. It is the canonical way to shard
// "n packets" into per-replica offers without losing the remainder.
func Split(total, shards int) []int {
	if shards <= 0 {
		return nil
	}
	out := make([]int, shards)
	per, extra := total/shards, total%shards
	for i := range out {
		out[i] = per
		if i < extra {
			out[i]++
		}
	}
	return out
}
