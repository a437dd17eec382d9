package flight_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"urllcsim/internal/obs/flight"
	"urllcsim/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestChromeTraceGolden pins the focused Perfetto trace byte for byte:
// process and thread metadata, span and edge events, and the arg maps of
// both directions' exemplars. Regenerate deliberately with
// `go test ./internal/obs/flight -run Golden -update`.
func TestChromeTraceGolden(t *testing.T) {
	rec, fr := newFlight(flight.Config{Deadline: sim.Duration(deadline), TopK: 2})
	runScenario(t, 1, 3, rec)
	var buf bytes.Buffer
	if err := flight.WriteChromeTrace(&buf, fr.Set()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "flight_trace.json.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("flight Chrome trace drifted from %s (%d vs %d bytes)", path, buf.Len(), len(want))
	}
}
