package urllcsim

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/sim"
)

// scrapeOnce fetches /metrics once and discards the body.
func scrapeOnce(addr string) error {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape status %d", resp.StatusCode)
	}
	return nil
}

// runAudited runs a small two-direction scenario with a recorder attached
// and returns the recorder.
func runAudited(t testing.TB, seed uint64, deadline time.Duration) *obs.Recorder {
	t.Helper()
	rec := obs.NewRecorder()
	sc, err := NewScenario(ScenarioConfig{
		Pattern:   PatternDDDU,
		SlotScale: Slot0p5ms,
		Radio:     RadioUSB2,
		Seed:      seed,
		Deadline:  deadline,
		Obs:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	const packets = 24
	for i := 0; i < packets; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		sc.SendUplink(at+137*time.Microsecond, 32)
		sc.SendDownlink(at+731*time.Microsecond, 32)
	}
	if rs := sc.Run((packets + 50) * 2 * time.Millisecond); len(rs) != 2*packets {
		t.Fatalf("resolved %d/%d packets", len(rs), 2*packets)
	}
	return rec
}

// TestReportRoundTrip extends TestSpanPartition across the JSONL boundary:
// a scenario's trace is exported, re-ingested, and audited. The per-source
// budget of every first-attempt delivery must sum exactly — to the
// nanosecond — to the one-way latency recorded in its outcome, and the
// offline audit must equal the in-process one structurally.
func TestReportRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		rec := runAudited(t, seed, 500*time.Microsecond)

		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, rec); err != nil {
			t.Fatal(err)
		}
		tr, err := analyze.ReadJSONL(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		direct := analyze.FromRecorder(rec)
		if !reflect.DeepEqual(tr, direct) {
			t.Fatalf("seed %d: JSONL round trip is not lossless", seed)
		}

		audit := analyze.Run(tr, "roundtrip", 500*sim.Microsecond)
		if len(audit.Journeys) == 0 {
			t.Fatalf("seed %d: audit saw no journeys", seed)
		}
		exact := 0
		for _, j := range audit.Journeys {
			if !j.HasOutcome {
				t.Fatalf("seed %d pkt %d: journey has no outcome record", seed, j.Packet)
			}
			if !j.Delivered || j.Attempts != 1 {
				continue // HARQ retransmissions overlap; the exact sum is a first-attempt invariant
			}
			var bySource sim.Duration
			for _, v := range j.BySource {
				bySource += v
			}
			if bySource != j.SpanSum {
				t.Fatalf("seed %d pkt %d: source split %v ≠ span sum %v", seed, j.Packet, bySource, j.SpanSum)
			}
			if j.SpanSum != j.Latency {
				t.Fatalf("seed %d pkt %d: budget sums to %v, outcome latency is %v (Δ %vns)",
					seed, j.Packet, j.SpanSum, j.Latency, int64(j.SpanSum-j.Latency))
			}
			if !j.BudgetExact() {
				t.Fatalf("seed %d pkt %d: BudgetExact false despite equal sums", seed, j.Packet)
			}
			exact++
		}
		if exact == 0 {
			t.Fatalf("seed %d: no first-attempt deliveries audited", seed)
		}

		// The offline audit must agree with one built straight from the
		// recorder: same verdict counts, budgets and quantiles per direction.
		inProc := analyze.Run(direct, "roundtrip", 500*sim.Microsecond)
		if len(inProc.Dirs) != len(audit.Dirs) {
			t.Fatalf("seed %d: in-process audit has %d dirs, offline %d", seed, len(inProc.Dirs), len(audit.Dirs))
		}
		for i, d := range audit.Dirs {
			o := inProc.Dirs[i]
			if o.Dir != d.Dir {
				t.Fatalf("seed %d: dir %v missing from in-process audit", seed, d.Dir)
			}
			if d.N != o.N || d.Delivered != o.Delivered || d.Lost != o.Lost ||
				d.DeadlineMet != o.DeadlineMet || d.Missed != o.Missed ||
				d.BySource != o.BySource || d.MissDominant != o.MissDominant {
				t.Fatalf("seed %d dir %v: offline audit diverges from in-process audit", seed, d.Dir)
			}
			for _, q := range []float64{0.5, 0.99, 0.999, 0.99999} {
				if d.Hist.Quantile(q) != o.Hist.Quantile(q) {
					t.Fatalf("seed %d dir %v: q%.5f differs across the JSONL boundary", seed, d.Dir, q)
				}
			}
		}

		// Deadline verdicts recorded live by the node layer match the
		// offline recount.
		reg := rec.Metrics()
		var liveMet, liveMiss int64
		for _, c := range reg.Counters() {
			switch c.Name {
			case "pkt.deadline_met":
				liveMet = c.Value()
			case "pkt.deadline_miss":
				liveMiss = c.Value()
			}
		}
		var auditMet, auditMiss int64
		for _, d := range audit.Dirs {
			auditMet += d.DeadlineMet
			auditMiss += d.Missed
		}
		if liveMet != auditMet || liveMiss != auditMiss {
			t.Fatalf("seed %d: live verdict counters met=%d miss=%d, offline audit met=%d miss=%d",
				seed, liveMet, liveMiss, auditMet, auditMiss)
		}
	}
}

// TestLiveScrapeDuringRun drives a real scenario with a telemetry server
// attached and scrapes it mid-run from another goroutine: the simulation's
// results must be identical to an unserved run (the lock changes timing of
// nothing in virtual time), and every scrape must be valid.
func TestLiveScrapeDuringRun(t *testing.T) {
	recPlain := runAudited(t, 7, 500*time.Microsecond)

	recServed := obs.NewRecorder()
	srv, err := obs.Serve("127.0.0.1:0", recServed)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sc, err := NewScenario(ScenarioConfig{
		Pattern: PatternDDDU, SlotScale: Slot0p5ms, Radio: RadioUSB2,
		Seed: 7, Deadline: 500 * time.Microsecond, Obs: recServed,
	})
	if err != nil {
		t.Fatal(err)
	}
	const packets = 24
	for i := 0; i < packets; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		sc.SendUplink(at+137*time.Microsecond, 32)
		sc.SendDownlink(at+731*time.Microsecond, 32)
	}
	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				if err := scrapeOnce(srv.Addr); err != nil {
					scraped <- err
					return
				}
			}
		}
	}()
	rs := sc.Run((packets + 50) * 2 * time.Millisecond)
	close(stop)
	if err, ok := <-scraped; ok && err != nil {
		t.Fatalf("scrape during run: %v", err)
	}
	if len(rs) != 2*packets {
		t.Fatalf("resolved %d/%d packets", len(rs), 2*packets)
	}

	// Virtual-time determinism survives the live lock: identical audits.
	a := analyze.Run(analyze.FromRecorder(recPlain), "x", 500*sim.Microsecond)
	b := analyze.Run(analyze.FromRecorder(recServed), "x", 500*sim.Microsecond)
	if !reflect.DeepEqual(a.Journeys, b.Journeys) {
		t.Fatal("journeys differ between served and unserved runs of the same seed")
	}
}

// BenchmarkLiveEndpointOverhead measures the scrape-path tax on the
// simulation hot loop. NoServer is the shipping default: the only cost is a
// nil pointer comparison per registry operation, so it must stay within
// noise of the plain recorder benchmark (see BenchmarkTracingOverhead).
// ServerAttached pays the uncontended mutex.
func BenchmarkLiveEndpointOverhead(b *testing.B) {
	run := func(b *testing.B, serve bool) {
		for i := 0; i < b.N; i++ {
			rec := obs.NewRecorder()
			if serve {
				srv, err := obs.Serve("127.0.0.1:0", rec)
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
			}
			sc, err := NewScenario(ScenarioConfig{
				Pattern: PatternDDDU, SlotScale: Slot0p5ms, Radio: RadioUSB2,
				Seed: 1, Deadline: 500 * time.Microsecond, Obs: rec,
			})
			if err != nil {
				b.Fatal(err)
			}
			const packets = 32
			for p := 0; p < packets; p++ {
				at := time.Duration(p) * 2 * time.Millisecond
				sc.SendUplink(at+137*time.Microsecond, 32)
				sc.SendDownlink(at+731*time.Microsecond, 32)
			}
			if rs := sc.Run((packets + 50) * 2 * time.Millisecond); len(rs) != 2*packets {
				b.Fatalf("resolved %d/%d", len(rs), 2*packets)
			}
		}
	}
	b.Run("NoServer", func(b *testing.B) { run(b, false) })
	b.Run("ServerAttached", func(b *testing.B) { run(b, true) })
}
