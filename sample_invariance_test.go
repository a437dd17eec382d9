package urllcsim

import (
	"bytes"
	"testing"
	"time"

	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/sim"
	"urllcsim/internal/sweep"
)

// tailScenario runs one deadline-audited full-stack replica with the given
// span sample rate (1 disables sampling) and returns its recorder.
func tailScenario(t *testing.T, seed uint64, rate float64) *obs.Recorder {
	t.Helper()
	rec := obs.NewRecorder()
	if rate < 1 {
		rec.SetSampling(rate, seed)
	}
	sc, err := NewScenario(ScenarioConfig{
		Pattern: PatternDDDU, SlotScale: Slot0p5ms, Radio: RadioUSB2,
		Seed: seed, Deadline: 500 * time.Microsecond, Obs: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	const packets = 48
	rng := sim.NewRNG(seed ^ 0x7A11)
	for i := 0; i < packets; i++ {
		at := time.Duration(i)*2*time.Millisecond + time.Duration(rng.UniformDuration(0, sim.Duration(2*time.Millisecond)))
		sc.SendUplinkFrom(i%3, at, 32)
		sc.SendDownlinkFrom(i%3, at, 32)
	}
	sc.Run(time.Duration(packets+60) * 2 * time.Millisecond)
	return rec
}

// TestSamplingExactTail is the sampler's headline guarantee: span sampling
// thins the retained journey log and nothing else. The deadline audit
// derives delivery, loss, deadline verdicts and the latency tail from
// outcomes — which are never sampled — so every outcome-derived number is
// identical at any rate, including rate 0.
func TestSamplingExactTail(t *testing.T) {
	const seed = 5
	fullRec := tailScenario(t, seed, 1)
	full := analyze.Run(analyze.FromRecorder(fullRec), "tail", 500*sim.Microsecond)
	for _, rate := range []float64{0.25, 0.05, 0} {
		rec := tailScenario(t, seed, rate)
		sampled := analyze.Run(analyze.FromRecorder(rec), "tail", 500*sim.Microsecond)
		// Rate 0 has no wire representation distinct from "absent" (the
		// meta field is omitempty), so the audit normalises it to 1.
		wantRate := rate
		if rate == 0 {
			wantRate = 1
		}
		if sampled.SampleRate != wantRate {
			t.Fatalf("rate %g: audit SampleRate = %g, want %g", rate, sampled.SampleRate, wantRate)
		}
		if len(sampled.Dirs) != len(full.Dirs) {
			t.Fatalf("rate %g: %d directions, want %d", rate, len(sampled.Dirs), len(full.Dirs))
		}
		for i, want := range full.Dirs {
			got := sampled.Dirs[i]
			if got.N != want.N || got.Delivered != want.Delivered || got.Lost != want.Lost {
				t.Fatalf("rate %g dir %v: packet counts %d/%d/%d, want %d/%d/%d",
					rate, got.Dir, got.N, got.Delivered, got.Lost, want.N, want.Delivered, want.Lost)
			}
			if got.DeadlineMet != want.DeadlineMet || got.Missed != want.Missed {
				t.Fatalf("rate %g dir %v: deadline met/missed %d/%d, want %d/%d",
					rate, got.Dir, got.DeadlineMet, got.Missed, want.DeadlineMet, want.Missed)
			}
			if got.Rel.Value() != want.Rel.Value() {
				t.Fatalf("rate %g dir %v: reliability %v, want %v", rate, got.Dir, got.Rel.Value(), want.Rel.Value())
			}
			for _, q := range []float64{0.5, 0.99, 0.99999, 1} {
				if g, w := got.Hist.Quantile(q), want.Hist.Quantile(q); g != w {
					t.Fatalf("rate %g dir %v: p%g = %d, want %d", rate, got.Dir, q*100, g, w)
				}
			}
		}
		// Journeys come from outcomes, so every packet still has one; the
		// span log underneath is what thins.
		if len(sampled.Journeys) != len(full.Journeys) {
			t.Fatalf("rate %g: %d journeys, want %d (outcomes are never sampled)",
				rate, len(sampled.Journeys), len(full.Journeys))
		}
		if got, max := rec.Spans().Len(), fullRec.Spans().Len()/2; got > max {
			t.Fatalf("rate %g: retained %d spans of %d — sampling did not thin the log",
				rate, got, fullRec.Spans().Len())
		}
	}
}

// TestSampledSweepWorkerInvariance extends the sweep bit-identity contract
// to sampled runs: the admission verdict is a pure function of (shard seed,
// packet id), so 1, 2 and 4 workers produce byte-identical merged audit
// reports at any sample rate.
func TestSampledSweepWorkerInvariance(t *testing.T) {
	const shards, base, rate = 6, 9, 0.2
	reportFor := func(workers int) []byte {
		traces, err := sweep.Run(workers, shards, func(shard int) (*analyze.Trace, error) {
			rec := tailScenario(t, sweep.Seed(base, shard), rate)
			return analyze.FromRecorder(rec), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		merged := analyze.MergeTraces(traces...)
		audit := analyze.Run(merged, "sweep", 500*sim.Microsecond)
		var buf bytes.Buffer
		if err := analyze.WriteMarkdown(&buf, []*analyze.Audit{audit}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	golden := reportFor(1)
	if !bytes.Contains(golden, []byte("Effective span sample rate: 0.2")) {
		t.Fatalf("sampled report does not state its rate:\n%s", golden)
	}
	for _, workers := range []int{2, 4} {
		if got := reportFor(workers); !bytes.Equal(got, golden) {
			t.Fatalf("%d-worker sampled report differs from 1-worker report", workers)
		}
	}
}
