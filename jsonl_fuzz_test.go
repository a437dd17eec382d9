package urllcsim

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/obs/flight"
	"urllcsim/internal/obs/prof"
)

// FuzzReadJSONL feeds the same bytes to all five JSONL readers that
// urllc-report runs over every input file. None may panic, and each error is
// one line under its reader's prefix: the one-line-error contract the
// report's exit path relies on. Seeded with the trace, slot and KPI goldens
// and one flight, anomaly and profile line, alone and concatenated.
func FuzzReadJSONL(f *testing.F) {
	var mixed []byte
	for _, path := range []string{
		"internal/obs/testdata/trace.jsonl.golden",
		"internal/obs/testdata/trace_sampled.jsonl.golden",
		"internal/obs/testdata/slots.jsonl.golden",
		"internal/obs/analyze/testdata/kpi.jsonl.golden",
	} {
		data, err := os.ReadFile(filepath.FromSlash(path))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		mixed = append(mixed, data...)
	}
	for _, line := range []string{
		`{"kind":"flight_meta","schema":"urllcsim-flight/v1","label":"run","deadline_us":500,"topk":8}` + "\n" +
			`{"kind":"flight","schema":"urllcsim-flight/v1","packet":1,"dir":"DL","reason":"deadline_miss","delivered":true,"latency_us":1691.997,"deadline_us":500,"attempts":1,"chain":[{"t_us":731,"type":"span","name":"UPF→gNB (GTP-U)","layer":"core","source":"processing","dur_us":30},{"t_us":767.536,"type":"edge","name":"enqueued","ref_us":761,"arg":1}]}`,
		`{"kind":"anomaly","schema":"urllcsim-anomaly/v1","t_us":64398.558,"dir":"DL","metric":"miss_rate","value":1,"threshold":0.01,"n":32}`,
		`{"kind":"profile","schema":"urllcsim-profile/v3","events":3403,"wall_ns":16456073,"attributed_ns":15617553,"sim_ns":500000000,"event_types":[{"key":"gnb.tick","count":1001,"wall_ns":5317755,"share":0.34,"mean_ns":5312.44}],"heap":{"pushes":3403,"pops":3403,"max_depth":400},"obs":{"wall_ns":5101906,"records":16185,"categories":[{"category":"span","records":3820,"wall_ns":1429363}]}}`,
	} {
		f.Add([]byte(line + "\n"))
		mixed = append(mixed, line+"\n"...)
	}
	f.Add(mixed)
	f.Fuzz(func(t *testing.T, data []byte) {
		readers := []struct {
			prefix string
			read   func() error
		}{
			{"analyze", func() error { _, err := analyze.ReadJSONL(bytes.NewReader(data)); return err }},
			{"flight", func() error { _, err := flight.ReadJSONL(bytes.NewReader(data)); return err }},
			{"slots", func() error { _, err := obs.ReadSlotsJSONL(bytes.NewReader(data)); return err }},
			{"kpi", func() error { _, err := analyze.ReadKPIJSONL(bytes.NewReader(data)); return err }},
			{"prof", func() error { _, err := prof.ReadJSONL(bytes.NewReader(data)); return err }},
		}
		for _, r := range readers {
			err := r.read()
			if err == nil {
				continue
			}
			if msg := err.Error(); !strings.HasPrefix(msg, r.prefix+": ") || strings.Contains(msg, "\n") {
				t.Fatalf("%s reader: want one line under %q, got %q", r.prefix, r.prefix+": ", msg)
			}
		}
	})
}
