package obs_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"urllcsim"
	"urllcsim/internal/core"
	"urllcsim/internal/obs"
	"urllcsim/internal/sim"
)

// updating reports whether the package's -update flag (declared next to
// TestPrometheusGolden) asks for goldens to be rewritten.
func updating() bool { return flag.Lookup("update").Value.String() == "true" }

// checkGolden compares got against testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if updating() {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: output differs from golden (%d vs %d bytes); regenerate with -update only for an intended format change",
			name, len(got), len(want))
	}
}

// goldenCell runs a small seeded cell into rec: 8 UEs share 4 grant-free
// contention units at 12 dB SNR, so CG collisions, HARQ retransmissions and
// lost packets all occur, and DL traffic rides alongside. Every span carries
// one of the journey's step names, several of them non-ASCII (①…⑪, →).
// The run ends with two hand-made zero-length spans whose step names need
// every kind of JSON string escape. Returns the CG collision count.
func goldenCell(t testing.TB, rec *obs.Recorder) int {
	t.Helper()
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern: urllcsim.PatternDM, SlotScale: urllcsim.Slot0p5ms,
		Radio: urllcsim.RadioUSB2, GrantFree: true, CGUnits: 4,
		SNRdB: 12, UEs: 8, Seed: 1, Deadline: 500 * time.Microsecond, Obs: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		at := time.Duration(i/8)*2*time.Millisecond + time.Duration(i%8)*61*time.Microsecond
		sc.SendUplinkFrom(i%8, at, 32)
		if i%3 == 0 {
			sc.SendDownlinkFrom(i%8, at+731*time.Microsecond, 32)
		}
	}
	sc.Run(60 * time.Millisecond)
	end := sim.Time(60 * sim.Millisecond)
	rec.PacketSpan(-1, obs.DirNone, obs.LayerSched, "tick <&> \"quoted\" \\ \t\x01", core.Protocol, end, 0)
	rec.PacketSpan(7, obs.DirUL, obs.LayerMAC, "bad utf-8 \xff\xfe, line sep \u2028 para sep \u2029 … ⑪", core.Protocol, end, 0)
	return sc.CGCollisions()
}

// slotsCell runs a small dynamic-grant cell with the slot ledger on: UL and
// DL traffic from 4 UEs, so the ledger holds DL-planning and UL-only ticks,
// ticks with per-UE takes and idle ones.
func slotsCell(t testing.TB) *obs.Recorder {
	t.Helper()
	rec := obs.NewRecorder()
	rec.EnableSlotLedger()
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern: urllcsim.PatternDDDU, SlotScale: urllcsim.Slot0p5ms,
		Radio: urllcsim.RadioUSB2, UEs: 4, Seed: 1, Obs: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		at := time.Duration(i) * 1500 * time.Microsecond
		sc.SendUplinkFrom(i%4, at+137*time.Microsecond, 32)
		sc.SendDownlinkFrom((i+1)%4, at+731*time.Microsecond, 48)
	}
	sc.Run(40 * time.Millisecond)
	return rec
}

// TestTraceJSONLGolden pins the urllcsim-trace/v1 export of the golden cell
// byte for byte, for WriteJSONL and for the streaming writer, which spills
// the span log block by block. A second, 1/16-sampled recorder pins the sample_rate meta line.
// Regenerate with `go test -run TraceJSONLGolden -update`.
func TestTraceJSONLGolden(t *testing.T) {
	rec := obs.NewRecorder()
	if n := goldenCell(t, rec); n == 0 {
		t.Fatal("golden cell saw no CG collisions — the fixture no longer covers them")
	}
	var batch bytes.Buffer
	if err := obs.WriteJSONL(&batch, rec); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"delivered":false`, `"attempts":2`, "HARQ retransmission", "radio miss", "①", "→"} {
		if !bytes.Contains(batch.Bytes(), []byte(want)) {
			t.Fatalf("golden cell trace lacks %s — the fixture no longer covers it", want)
		}
	}
	checkGolden(t, "trace.jsonl.golden", batch.Bytes())

	var streamed bytes.Buffer
	srec := obs.NewRecorder()
	st, err := obs.StreamJSONL(&streamed, srec)
	if err != nil {
		t.Fatal(err)
	}
	goldenCell(t, srec)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), batch.Bytes()) {
		t.Fatal("StreamJSONL output differs from the trace golden")
	}

	sampled := obs.NewRecorder()
	sampled.SetSampling(1.0/16, 1)
	goldenCell(t, sampled)
	var sb bytes.Buffer
	if err := obs.WriteJSONL(&sb, sampled); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_sampled.jsonl.golden", sb.Bytes())
}

// TestSlotsJSONLGolden pins the urllcsim-slots/v1 export of the slots cell
// byte for byte. Regenerate with `go test -run SlotsJSONLGolden -update`.
func TestSlotsJSONLGolden(t *testing.T) {
	rec := slotsCell(t)
	var buf bytes.Buffer
	if err := obs.WriteSlotsJSONL(&buf, rec.Slots(), "golden <cell> & \"slots\""); err != nil {
		t.Fatal(err)
	}
	var dl, ulOnly, withUE, withoutUE bool
	for _, s := range rec.Slots() {
		dl = dl || s.TargetDL != sim.Never
		ulOnly = ulOnly || s.TargetDL == sim.Never
		withUE = withUE || len(s.PerUE) > 0
		withoutUE = withoutUE || len(s.PerUE) == 0
	}
	if !dl || !ulOnly || !withUE || !withoutUE {
		t.Fatalf("slots fixture lacks a tick shape: dl=%v ul-only=%v per_ue=%v no per_ue=%v", dl, ulOnly, withUE, withoutUE)
	}
	checkGolden(t, "slots.jsonl.golden", buf.Bytes())
}
