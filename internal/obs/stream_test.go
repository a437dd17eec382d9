package obs

import (
	"fmt"
	"strings"
	"testing"

	"urllcsim/internal/core"
	"urllcsim/internal/sim"
)

// TestStreamJSONLMatchesWriteJSONL is the streaming pipeline's correctness
// contract: spilling span blocks to the writer during the run, then closing
// (tail spans, outcomes), produces byte-for-byte the file WriteJSONL writes
// from a fully-retained recorder — at every span count around the block
// boundaries, and for a mixed workload.
func TestStreamJSONLMatchesWriteJSONL(t *testing.T) {
	first, capLen := logBlockLen[Span](0), logBlockLen[Span](5)
	spansOf := func(n int) func(*Recorder) {
		return func(r *Recorder) {
			for i := 0; i < n; i++ {
				r.PacketSpan(i/3, Dir(1+i%2), LayerStack, "step", core.Source(i%3),
					sim.Time(i*1000), sim.Duration(i%7+1)*sim.Microsecond)
				if i%3 == 2 {
					r.Outcome(Outcome{Packet: i / 3, Dir: Dir(1 + i%2), Delivered: true, Latency: sim.Duration(i)})
				}
			}
		}
	}
	cases := map[string]func(*Recorder){"workload": recordWorkload}
	for _, n := range []int{0, 1, first - 1, first, first + 1, 5*first + 3, capLen - 1, capLen, capLen + 1, 3*capLen + 7} {
		cases[fmt.Sprintf("%d spans", n)] = spansOf(n)
	}
	for name, record := range cases {
		retained := NewRecorder()
		record(retained)
		var want strings.Builder
		if err := WriteJSONL(&want, retained); err != nil {
			t.Fatal(err)
		}

		var got strings.Builder
		rec := NewRecorder()
		st, err := StreamJSONL(&got, rec)
		if err != nil {
			t.Fatal(err)
		}
		record(rec)
		if held := rec.Spans().Len(); held >= first {
			t.Fatalf("%s: recorder holds %d spans while streaming, want < %d (one block)", name, held, first)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: streamed output differs from WriteJSONL", name)
		}
	}
}

// TestStreamJSONLSampled: the streamed file matches the retained file under
// sampling too, and both carry the sample_rate meta field.
func TestStreamJSONLSampled(t *testing.T) {
	retained := NewRecorder()
	retained.SetSampling(0.5, 5)
	recordWorkload(retained)
	var want strings.Builder
	if err := WriteJSONL(&want, retained); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(want.String(), "\n", 2)[0], `"sample_rate":0.5`) {
		t.Fatalf("sampled meta line missing sample_rate: %q", strings.SplitN(want.String(), "\n", 2)[0])
	}

	var got strings.Builder
	rec := NewRecorder()
	rec.SetSampling(0.5, 5)
	st, err := StreamJSONL(&got, rec)
	if err != nil {
		t.Fatal(err)
	}
	recordWorkload(rec)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("sampled streamed output differs from WriteJSONL")
	}
}

// TestUnsampledMetaHasNoRate: a recorder without sampling writes exactly the
// meta line pre-sampling builds wrote — the field is omitted, keeping
// unsampled trace files byte-identical across versions.
func TestUnsampledMetaHasNoRate(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSONL(&sb, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	meta := strings.SplitN(sb.String(), "\n", 2)[0]
	if strings.Contains(meta, "sample_rate") {
		t.Fatalf("unsampled meta line carries sample_rate: %q", meta)
	}
}
