package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzBenchParse: the BENCH reader never panics, every error is one line,
// and any file it accepts re-encodes (File.Write's form) into one it accepts
// again. Seeded with the committed baseline, a fresh sample file and
// truncations of both.
func FuzzBenchParse(f *testing.F) {
	baseline, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		f.Fatal(err)
	}
	sample, err := json.MarshalIndent(sampleFile(), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{baseline, sample} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	// A valid file whose benchmark names carry newlines, with the record
	// broken so Validate names it, and with a mistyped extra metric.
	bad := strings.Replace(string(sample), `"name": "A"`, `"name": "A\nB"`, 1)
	f.Add([]byte(strings.Replace(bad, `"n": 100`, `"n": 0`, 1)))
	f.Add([]byte(strings.Replace(bad, `"events/sec": 500000`, `"events\nsec": "x"`, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := parse(data)
		if err != nil {
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("multi-line error: %q", err)
			}
			return
		}
		raw, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			t.Fatalf("accepted file does not re-encode: %v", err)
		}
		if _, err := parse(raw); err != nil {
			t.Fatalf("re-encoded file is rejected: %v\n%s", err, raw)
		}
	})
}
