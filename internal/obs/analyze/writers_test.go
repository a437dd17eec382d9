package analyze

import (
	"bytes"
	"errors"
	"testing"

	"urllcsim/internal/core"
	"urllcsim/internal/obs"
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

// TestExportAllocs pins the JSONL exporters' allocation profile: writing the
// trace, the slot ledger and the KPI report into a reused buffer costs a
// fixed number of allocations (buffered writers and line buffers) however
// many records there are. Writers built on encoding/json allocated on every
// record.
func TestExportAllocs(t *testing.T) {
	allocs := func(packets int) float64 {
		rec := exportFixture(packets)
		rep := ComputeKPI(FromRecorder(rec), "allocs")
		var buf bytes.Buffer
		return testing.AllocsPerRun(5, func() {
			buf.Reset()
			if err := obs.WriteJSONL(&buf, rec); err != nil {
				t.Fatal(err)
			}
			if err := obs.WriteSlotsJSONL(&buf, rec.Slots(), "allocs"); err != nil {
				t.Fatal(err)
			}
			if err := WriteKPIJSONL(&buf, rep); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(2000)
	if large > small {
		t.Fatalf("export allocations grow with the record count: %.0f for 100 packets, %.0f for 2000", small, large)
	}
	t.Logf("export allocations: %.0f for 100 packets, %.0f for 2000", small, large)
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
	rep := ComputeKPI(FromRecorder(rec), "errors")
	for name, write := range map[string]func(w *failAfter) error{
		"trace": func(w *failAfter) error { return obs.WriteJSONL(w, rec) },
		"slots": func(w *failAfter) error { return obs.WriteSlotsJSONL(w, rec.Slots(), "errors") },
		"kpi":   func(w *failAfter) error { return WriteKPIJSONL(w, rep) },
		"stream": func(w *failAfter) error {
			srec := obs.NewRecorder()
			st, err := obs.StreamJSONL(w, srec, 64)
			if err != nil {
				return err
			}
			for _, s := range rec.Spans() {
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
