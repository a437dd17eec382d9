package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"urllcsim/internal/sim"
)

func slotFixture() []SlotRecord {
	ms := func(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	return []SlotRecord{
		{Boundary: ms(1), TargetDL: ms(2), DLCapBytes: 96, DLUsedBytes: 64,
			QueueDepth: 3, QueueTaken: 2, GrantsIssued: 1, ULGrantBytes: 32,
			SRsPending: 1, SRsDeferred: 0,
			PerUE: []SlotUETake{{UE: 0, DLBytes: 32, DLItems: 1}, {UE: 2, DLBytes: 32, DLItems: 1, ULBytes: 32, ULGrants: 1}}},
		{Boundary: ms(2), TargetDL: sim.Never, SRsPending: 2, SRsDeferred: 2},
		{Boundary: ms(3), TargetDL: ms(4), DLCapBytes: 96, DLUsedBytes: 96,
			QueueDepth: 5, QueueTaken: 3, GrantsIssued: 2, ULGrantBytes: 64,
			PerUE: []SlotUETake{{UE: 1, DLBytes: 96, DLItems: 3, ULBytes: 64, ULGrants: 2}}},
	}
}

// TestMergeSlotLedgersExact: shard ledgers of one configuration merge by
// boundary with exact integer sums and per-UE takes folded by UE id.
func TestMergeSlotLedgersExact(t *testing.T) {
	a, b := slotFixture(), slotFixture()
	merged := MergeSlotLedgers(a, b)
	if len(merged) != 3 {
		t.Fatalf("merged %d boundaries, want 3", len(merged))
	}
	first := merged[0]
	if first.DLCapBytes != 192 || first.DLUsedBytes != 128 || first.QueueDepth != 6 ||
		first.GrantsIssued != 2 || first.ULGrantBytes != 64 || first.SRsPending != 2 {
		t.Fatalf("sums wrong: %+v", first)
	}
	if first.TargetDL != sim.Time(2)*sim.Time(sim.Millisecond) {
		t.Fatalf("TargetDL lost in merge: %v", first.TargetDL)
	}
	want := []SlotUETake{
		{UE: 0, DLBytes: 64, DLItems: 2},
		{UE: 2, DLBytes: 64, DLItems: 2, ULBytes: 64, ULGrants: 2},
	}
	if !reflect.DeepEqual(first.PerUE, want) {
		t.Fatalf("per-UE merge = %+v, want %+v", first.PerUE, want)
	}
	if merged[1].TargetDL != sim.Never || merged[1].SRsDeferred != 4 {
		t.Fatalf("no-DL tick mangled: %+v", merged[1])
	}
}

// TestMergeSlotLedgersAssociative: merging all shards flat equals merging in
// sub-groups first — the property behind -parallel invariance, given a fixed
// shard order.
func TestMergeSlotLedgersAssociative(t *testing.T) {
	a, b, c, d := slotFixture(), slotFixture(), slotFixture()[:1], slotFixture()[1:]
	flat := MergeSlotLedgers(a, b, c, d)
	tree := MergeSlotLedgers(MergeSlotLedgers(a, b), MergeSlotLedgers(c, d))
	if !reflect.DeepEqual(flat, tree) {
		t.Fatalf("merge not associative:\nflat %+v\ntree %+v", flat, tree)
	}
}

// TestSlotsJSONLRoundTrip: write → read reconstructs the ledger exactly,
// including the sim.Never sentinel and nanosecond boundaries.
func TestSlotsJSONLRoundTrip(t *testing.T) {
	recs := slotFixture()
	recs[0].Boundary += 123 // a non-round nanosecond count must survive µs wire form
	var buf bytes.Buffer
	if err := WriteSlotsJSONL(&buf, recs, "fixture"); err != nil {
		t.Fatal(err)
	}
	f, err := ReadSlotsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !f.HasMeta || f.Label != "fixture" {
		t.Fatalf("meta lost: %+v", f)
	}
	if !reflect.DeepEqual(f.Records, recs) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", f.Records, recs)
	}
}

// TestSlotsReaderRejectsUnknownSchema: a future schema version is a one-line
// error, not a zero-filled ledger.
func TestSlotsReaderRejectsUnknownSchema(t *testing.T) {
	in := `{"kind":"slots_meta","schema":"urllcsim-slots/v99"}` + "\n"
	_, err := ReadSlotsJSONL(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "unsupported slots schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

// TestSlotsReaderRejectsOutOfRangeMicros: a boundary or target µs value
// outside jsonl's exact range is a one-line error naming the line and the
// field, not a silent garbage nanosecond count.
func TestSlotsReaderRejectsOutOfRangeMicros(t *testing.T) {
	slot := `{"kind":"slot","boundary_us":%s,"dl":true,"target_dl_us":%s,"cap_bytes":96,"used_bytes":32,"qdepth":1,"qtaken":1,"grants":0,"grant_bytes":0,"srs_pending":0,"srs_deferred":0}`
	for _, c := range []struct{ line, field string }{
		{fmt.Sprintf(slot, "1e300", "1"), "boundary_us"},
		{fmt.Sprintf(slot, "-4398046511104", "1"), "boundary_us"},
		{fmt.Sprintf(slot, "1", "9.3e15"), "target_dl_us"},
	} {
		in := `{"kind":"slots_meta","schema":"urllcsim-slots/v1"}` + "\n" + c.line + "\n"
		_, err := ReadSlotsJSONL(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 2: "+c.field+" ") || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: want a one-line \"line 2: %s …\" error, got %v", c.line, c.field, err)
		}
	}
}

// TestSlotsReaderSkipsForeignKinds: trace and flight records in the same file
// pass through without error and without fabricating ledger entries.
func TestSlotsReaderSkipsForeignKinds(t *testing.T) {
	in := `{"kind":"meta","schema":"urllcsim-trace/v1"}
{"kind":"outcome","packet":1,"dir":"UL","delivered":true,"latency_us":250,"attempts":1,"end_us":500}
{"kind":"slots_meta","schema":"urllcsim-slots/v1","label":"mixed"}
{"kind":"slot","boundary_us":1000,"dl":true,"target_dl_us":2000,"cap_bytes":96,"used_bytes":32,"qdepth":1,"qtaken":1,"grants":0,"grant_bytes":0,"srs_pending":0,"srs_deferred":0}
`
	f, err := ReadSlotsJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !f.HasMeta || f.Label != "mixed" || len(f.Records) != 1 {
		t.Fatalf("mixed-file parse wrong: %+v", f)
	}
	if f.Records[0].DLUsedBytes != 32 || f.Records[0].TargetDL != sim.Time(2)*sim.Time(sim.Millisecond) {
		t.Fatalf("slot record wrong: %+v", f.Records[0])
	}
}

// TestSlotsMarkdownSections: the report section carries the headline, the
// busiest-slot table and the per-UE totals.
func TestSlotsMarkdownSections(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSlotsMarkdown(&buf, &SlotFile{Label: "fix", Records: slotFixture()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## Slot occupancy — fix",
		"3 scheduling ticks, 2 planned a DL-capable slot",
		"| 3000.00 | 96/96 |", // busiest slot leads the table
		"| UE | DL bytes |",
		"| 1 | 96 | 3 | 64 | 2 |",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

// FuzzSlotsJSONLRoundTrip: any slots stream ReadSlotsJSONL accepts
// re-encodes through WriteSlotsJSONL(f.Records, f.Label) into a stream that
// reads back to the same ledger and label (with the meta line the writer
// always stamps), and encoding that again is byte-identical.
func FuzzSlotsJSONLRoundTrip(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSlotsJSONL(&buf, slotFixture(), "fixture"); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, line := range strings.SplitAfter(buf.String(), "\n")[1:] {
		f.Add([]byte(line))
	}
	meta := `{"kind":"slots_meta","schema":"urllcsim-slots/v1"}` + "\n"
	for _, s := range []string{
		meta + `{"kind":"slot","boundary_us":-0.0005,"dl":true,"target_dl_us":-0.001,"per_ue":[]}`,
		meta + `{"kind":"slot","boundary_us":4398046511103.999,"dl":true,"target_dl_us":0}`,
		`{"kind":"slots_meta","schema":"urllcsim-slots/v1","label":"a \ud800"}` + "\n" + `{"kind":"slots_meta","schema":"urllcsim-slots/v1","label":"b"}`,
		`{"kind":"slot","boundary_us":1e-4,"dl":false,"target_dl_us":7,"per_ue":[{"ue":-3,"dl_bytes":-1}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ReadSlotsJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := WriteSlotsJSONL(&enc, first.Records, first.Label); err != nil {
			t.Fatalf("accepted ledger does not re-encode: %v", err)
		}
		again, err := ReadSlotsJSONL(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded ledger does not read back: %v\n%s", err, enc.Bytes())
		}
		want := *first
		want.HasMeta = true
		if !reflect.DeepEqual(*again, want) {
			t.Fatalf("re-encoded ledger reads back differently:\ngot  %+v\nwant %+v\n%s", *again, want, enc.Bytes())
		}
		var enc2 bytes.Buffer
		if err := WriteSlotsJSONL(&enc2, again.Records, again.Label); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatalf("second encode differs:\n%s\n%s", enc.Bytes(), enc2.Bytes())
		}
	})
}
