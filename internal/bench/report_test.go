package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleFile() *File {
	f := NewFile("1s")
	f.Results = []Result{
		{Name: "A", N: 100, NsPerOp: 1000, BytesPerOp: 64, AllocsPerOp: 2,
			Extra: map[string]float64{"events/sec": 5e5}},
		{Name: "B", N: 50, NsPerOp: 2000, BytesPerOp: 0, AllocsPerOp: 0},
	}
	return f
}

func TestSuiteNamesUniqueAndOrdered(t *testing.T) {
	seen := map[string]bool{}
	for _, bm := range Suite() {
		if bm.Name == "" || bm.F == nil {
			t.Fatalf("malformed suite entry %+v", bm)
		}
		if seen[bm.Name] {
			t.Fatalf("duplicate suite name %q", bm.Name)
		}
		seen[bm.Name] = true
	}
	for _, want := range []string{"WorstCaseEngine", "EngineSchedule", "EngineCancelStorm", "PDCPKeyed", "ObsRecord", "FlightRecorderOverhead"} {
		if !seen[want] {
			t.Fatalf("suite lost entry %q", want)
		}
	}
}

func TestValidateAcceptsGoodFile(t *testing.T) {
	if err := sampleFile().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadFiles(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*File)
		want   string
	}{
		{"wrong schema", func(f *File) { f.Schema = "v0" }, "schema"},
		{"bad timestamp", func(f *File) { f.Timestamp = "yesterday" }, "timestamp"},
		{"no go version", func(f *File) { f.Go = "" }, "toolchain"},
		{"no benchmarks", func(f *File) { f.Results = nil }, "no benchmarks"},
		{"unnamed benchmark", func(f *File) { f.Results[0].Name = "" }, "no name"},
		{"duplicate benchmark", func(f *File) { f.Results[1].Name = "A" }, "duplicate"},
		{"zero iterations", func(f *File) { f.Results[0].N = 0 }, "n = 0"},
		{"zero ns/op", func(f *File) { f.Results[0].NsPerOp = 0 }, "ns_per_op"},
		{"negative allocs", func(f *File) { f.Results[0].AllocsPerOp = -1 }, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := sampleFile()
			tc.break_(f)
			err := f.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a file with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	f := sampleFile()
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 2 || got.Results[0].Name != "A" || got.Results[0].NsPerOp != 1000 {
		t.Fatalf("round trip mangled results: %+v", got.Results)
	}
	if got.Results[0].Extra["events/sec"] != 5e5 {
		t.Fatal("round trip lost extra metrics")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("Load succeeded on a missing file")
	}
	// Files written before the embedded profile and -short went still load.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(raw), `"benchtime": "1s",`,
		`"benchtime": "1s", "short": true, "profile": {"schema": "urllcsim-profile/v3", "events": 9},`, 1)
	if old == string(raw) {
		t.Fatal("older-file fixture did not insert the dropped keys")
	}
	if got, err := parse([]byte(old)); err != nil || len(got.Results) != 2 {
		t.Fatalf("older file with short/profile keys rejected: %v", err)
	}
}

func TestCompareSelfIsClean(t *testing.T) {
	f := sampleFile()
	c := Compare(f, f)
	if regs := c.Regressions(); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}
	if len(c.Deltas) != 2 || len(c.MissingInNew) != 0 || len(c.NewOnly) != 0 {
		t.Fatalf("self-comparison shape wrong: %+v", c)
	}
}

// TestCompareInjectedRegression is the acceptance property of the gate: one
// extra allocation per op trips -check, while a 100× ns/op slowdown with
// equal allocations does not.
func TestCompareInjectedRegression(t *testing.T) {
	base, cur := sampleFile(), sampleFile()
	cur.Results[0].AllocsPerOp = base.Results[0].AllocsPerOp + 1 // A: +1 alloc/op
	cur.Results[1].NsPerOp = base.Results[1].NsPerOp * 100       // B: 100× slower, same allocs
	c := Compare(base, cur)
	regs := c.Regressions()
	if len(regs) != 1 || regs[0] != "A" {
		t.Fatalf("Regressions = %v, want [A]", regs)
	}
	// Regressions sort first in the delta table.
	if c.Deltas[0].Name != "A" || !c.Deltas[0].Regression {
		t.Fatalf("deltas not sorted regressions-first: %+v", c.Deltas)
	}
	md := c.MarkdownTable()
	if !strings.Contains(md, "**REGRESSION**") || !strings.Contains(md, "2→3") || !strings.Contains(md, "+9900.0%") {
		t.Fatalf("delta table missing regression verdict or timing delta:\n%s", md)
	}
}

// TestCompareZeroAllocGate pins the gate's exactness: a zero-alloc benchmark
// regresses the moment it allocates at all, and an allocating one the moment
// it allocates one more per op.
func TestCompareZeroAllocGate(t *testing.T) {
	base, cur := sampleFile(), sampleFile()
	cur.Results[1].AllocsPerOp = 1 // B: baseline 0 → now allocating
	if regs := Compare(base, cur).Regressions(); len(regs) != 1 || regs[0] != "B" {
		t.Fatalf("Regressions = %v, want [B]", regs)
	}
	base, cur = sampleFile(), sampleFile()
	cur.Results[0].AllocsPerOp = base.Results[0].AllocsPerOp + 1 // A: 2 → 3
	if regs := Compare(base, cur).Regressions(); len(regs) != 1 || regs[0] != "A" {
		t.Fatalf("Regressions = %v, want [A]", regs)
	}
}

func TestCompareSpeedupNeverFails(t *testing.T) {
	base, cur := sampleFile(), sampleFile()
	cur.Results[0].NsPerOp = base.Results[0].NsPerOp / 10
	cur.Results[0].AllocsPerOp = base.Results[0].AllocsPerOp - 1
	if regs := Compare(base, cur).Regressions(); len(regs) != 0 {
		t.Fatalf("a 10× speedup with one allocation fewer tripped the gate: %v", regs)
	}
}

func TestCompareDisjointSuites(t *testing.T) {
	base, cur := sampleFile(), sampleFile()
	cur.Results[1].Name = "C" // B vanished, C appeared
	c := Compare(base, cur)
	if len(c.MissingInNew) != 1 || c.MissingInNew[0] != "B" {
		t.Fatalf("MissingInNew = %v, want [B]", c.MissingInNew)
	}
	if len(c.NewOnly) != 1 || c.NewOnly[0] != "C" {
		t.Fatalf("NewOnly = %v, want [C]", c.NewOnly)
	}
	if len(c.Regressions()) != 0 {
		t.Fatal("suite drift must warn, not fail")
	}
	md := c.MarkdownTable()
	if !strings.Contains(md, "missing in current run") || !strings.Contains(md, "new (no baseline)") {
		t.Fatalf("delta table missing drift rows:\n%s", md)
	}
}
