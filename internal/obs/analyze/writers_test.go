package analyze_test

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"urllcsim"
	"urllcsim/internal/core"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/sim"
)

// exportFixture records n packets the way the node layer does: six spans
// each under the journey's step names, one outcome (every seventh lost,
// with retries), and a slot-ledger tick every fourth packet with two per-UE
// takes.
func exportFixture(n int) *obs.Recorder {
	steps := []string{"① UE APP↓", "② wait for UL slot + SR", "④⑤ UL grant (wait+ctrl)",
		"⑥ UL data on air", "⑦ RH→gNB samples", "⑦ gNB PHY↑…SDAP↑"}
	takes := []obs.SlotUETake{{UE: 1, DLBytes: 48, DLItems: 1}, {UE: 5, ULBytes: 64, ULGrants: 1}}
	rec := obs.NewRecorder()
	rec.EnableSlotLedger()
	for p := 0; p < n; p++ {
		dir := obs.Dir(p % 2)
		at := sim.Time(p) * 137_913
		for i, step := range steps {
			rec.PacketSpan(p, dir, obs.LayerSched, step, core.Source(i%3), at+sim.Time(i)*41_017, 41_017)
		}
		lost := p%7 == 0
		rec.Outcome(obs.Outcome{Packet: p, UE: p % 8, Dir: dir, Delivered: !lost,
			Latency: sim.Duration(246_102 + p%13), Attempts: 1 + p%3, End: at + 246_102})
		if p%4 == 0 {
			rec.Slot(obs.SlotRecord{Boundary: at, TargetDL: at + 500_000, DLCapBytes: 2304,
				DLUsedBytes: 48, QueueDepth: p % 5, QueueTaken: 1, GrantsIssued: 1, PerUE: takes})
		}
	}
	return rec
}

// writeExports writes the trace, slot-ledger and KPI JSONL exports of rec
// and rep to w, as urllcsim's -jsonl-out, -slots-out and -kpi-out do.
func writeExports(tb testing.TB, w io.Writer, rec *obs.Recorder, rep *analyze.KPIReport) {
	if err := obs.WriteJSONL(w, rec); err != nil {
		tb.Fatal(err)
	}
	if err := obs.WriteSlotsJSONL(w, rec.Slots(), "bench"); err != nil {
		tb.Fatal(err)
	}
	if err := analyze.WriteKPIJSONL(w, rep); err != nil {
		tb.Fatal(err)
	}
}

// obsExportJSONLOp returns one ObsExportJSONL op, writeExports to
// io.Discard of one fixed simulated cell (8 UEs, 200 UL and 200 DL packets,
// slot ledger on), and the records the op exports. The cell is simulated
// once, outside the op.
func obsExportJSONLOp(tb testing.TB) (op func(), records int) {
	rec := obs.NewRecorder()
	rec.EnableSlotLedger()
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern: urllcsim.PatternDDDU, SlotScale: urllcsim.Slot0p5ms,
		Radio: urllcsim.RadioUSB2, UEs: 8, Seed: 1, Obs: rec,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		sc.SendUplinkFrom(i%8, at+137*time.Microsecond, 32)
		sc.SendDownlinkFrom((i+3)%8, at+731*time.Microsecond, 32)
	}
	sc.Run(time.Duration(200+50) * 2 * time.Millisecond)
	rep := analyze.ComputeKPI(analyze.FromRecorder(rec), "bench")
	records = rec.Spans().Len() + rec.Outcomes().Len() + len(rec.Slots())
	return func() { writeExports(tb, io.Discard, rec, rep) }, records
}

func BenchmarkObsExportJSONL(b *testing.B) {
	b.ReportAllocs()
	op, records := obsExportJSONLOp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.N)*float64(records)/b.Elapsed().Seconds(), "records/sec")
}

// TestExportAllocs pins the JSONL exporters' allocation profile: writing the
// trace, the slot ledger and the KPI report costs a fixed number of
// allocations (buffered writers and line buffers) however many records
// there are. Writers built on encoding/json allocated on every record. The
// ObsExportJSONL benchmark's op is pinned at its measured count; a rise
// fails.
func TestExportAllocs(t *testing.T) {
	allocs := func(packets int) float64 {
		rec := exportFixture(packets)
		rep := analyze.ComputeKPI(analyze.FromRecorder(rec), "allocs")
		var buf bytes.Buffer
		return testing.AllocsPerRun(5, func() {
			buf.Reset()
			writeExports(t, &buf, rec, rep)
		})
	}
	small, large := allocs(100), allocs(2000)
	if large > small {
		t.Fatalf("export allocations grow with the record count: %.0f for 100 packets, %.0f for 2000", small, large)
	}
	t.Logf("export allocations: %.0f for 100 packets, %.0f for 2000", small, large)
	if raceEnabled {
		return // -race adds allocations of its own
	}
	op, _ := obsExportJSONLOp(t)
	if n := testing.AllocsPerRun(5, op); n > 7 {
		t.Errorf("ObsExportJSONL: %v allocs/op, want ≤ 7", n)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		return 0, errDiskFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestExportWriteErrors: a write failure part-way through any of the JSONL
// exports is returned to the caller, for the batch and the streaming trace
// writer alike.
func TestExportWriteErrors(t *testing.T) {
	rec := exportFixture(200)
	rep := analyze.ComputeKPI(analyze.FromRecorder(rec), "errors")
	for name, write := range map[string]func(w *failAfter) error{
		"trace": func(w *failAfter) error { return obs.WriteJSONL(w, rec) },
		"slots": func(w *failAfter) error { return obs.WriteSlotsJSONL(w, rec.Slots(), "errors") },
		"kpi":   func(w *failAfter) error { return analyze.WriteKPIJSONL(w, rep) },
		"stream": func(w *failAfter) error {
			srec := obs.NewRecorder()
			st, err := obs.StreamJSONL(w, srec)
			if err != nil {
				return err
			}
			for s := range rec.Spans().All() {
				srec.PacketSpan(s.Packet, s.Dir, s.Layer, s.Step, s.Source, s.Start, s.Dur)
			}
			return st.Close()
		},
	} {
		if err := write(&failAfter{n: 1000}); !errors.Is(err, errDiskFull) {
			t.Errorf("%s: got %v, want the writer's error", name, err)
		}
	}
}
