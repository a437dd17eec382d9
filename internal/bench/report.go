package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Schema versions the BENCH_*.json file format; bump on any breaking field
// change so old trajectories stay parseable by the tool that wrote them.
const Schema = "urllc-bench/v1"

// Result is one benchmark's measurement in a BENCH file.
type Result struct {
	Name        string             `json:"name"`
	N           int                `json:"n"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"` // events/sec, …
}

// File is one point of the perf trajectory: the machine, the commit and
// every benchmark's numbers. Older files may also carry "short" and
// "profile" keys; the decoder ignores them.
type File struct {
	Schema    string   `json:"schema"`
	Timestamp string   `json:"timestamp"` // RFC 3339 UTC
	Commit    string   `json:"commit,omitempty"`
	Go        string   `json:"go"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	CPUs      int      `json:"cpus"`
	CPUModel  string   `json:"cpu_model,omitempty"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"benchmarks"`
}

// NewFile returns a File stamped with the current machine, toolchain and —
// when the working tree is a git checkout — commit.
func NewFile(benchtime string) *File {
	return &File{
		Schema:    Schema,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Commit:    gitCommit(),
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		CPUModel:  cpuModel(),
		Benchtime: benchtime,
	}
}

// Validate checks the file against the v1 schema: required fields present,
// at least one benchmark, and every benchmark internally consistent. It is
// the gate `urllc-bench -validate` and `make bench-smoke` run on every
// produced artifact.
func (f *File) Validate() error {
	if f.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", f.Schema, Schema)
	}
	if _, err := time.Parse(time.RFC3339, f.Timestamp); err != nil {
		return fmt.Errorf("timestamp %q not RFC 3339: %w", f.Timestamp, err)
	}
	if f.Go == "" || f.GOOS == "" || f.GOARCH == "" {
		return fmt.Errorf("missing toolchain/machine fields (go %q, goos %q, goarch %q)", f.Go, f.GOOS, f.GOARCH)
	}
	if f.CPUs < 1 {
		return fmt.Errorf("cpus = %d", f.CPUs)
	}
	if len(f.Results) == 0 {
		return fmt.Errorf("no benchmarks recorded")
	}
	seen := map[string]bool{}
	for i, r := range f.Results {
		if r.Name == "" {
			return fmt.Errorf("benchmark %d has no name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("duplicate benchmark %q", r.Name)
		}
		seen[r.Name] = true
		if r.N < 1 {
			return fmt.Errorf("%q: n = %d", r.Name, r.N)
		}
		if r.NsPerOp <= 0 {
			return fmt.Errorf("%q: ns_per_op = %g", r.Name, r.NsPerOp)
		}
		if r.BytesPerOp < 0 || r.AllocsPerOp < 0 {
			return fmt.Errorf("%q: negative allocation stats", r.Name)
		}
	}
	return nil
}

// Load reads and validates a BENCH file.
func Load(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// parse decodes and validates the bytes of a BENCH file. Errors are one
// line (FuzzBenchParse holds it to that).
func parse(raw []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("invalid BENCH file: %w", err)
	}
	return &f, nil
}

// Write writes the file as indented JSON.
func (f *File) Write(path string) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Delta is one benchmark's baseline-vs-current comparison.
type Delta struct {
	Name       string
	OldNs      float64
	NewNs      float64
	Pct        float64 // (new−old)/old, positive = slower
	OldAllocs  int64
	NewAllocs  int64
	Regression bool
}

// Comparison is the verdict of Compare: per-benchmark deltas over the names
// common to both files, plus the names only one side has (reported, never
// failed on — a suite grows across PRs).
type Comparison struct {
	Deltas       []Delta
	MissingInNew []string
	NewOnly      []string
}

// Regressions returns the names of benchmarks that allocate more per op than
// their baseline.
func (c *Comparison) Regressions() []string {
	var out []string
	for _, d := range c.Deltas {
		if d.Regression {
			out = append(out, d.Name)
		}
	}
	return out
}

// Compare matches benchmarks by name and flags any whose allocs/op rose
// above the baseline's. Allocation counts are exact — identical run to run
// and across benchtimes — so the gate has no tolerance: one extra
// allocation per op is a regression. ns/op is carried for the report only;
// on a shared machine its noise is wider than any tolerance worth gating,
// and timing evidence comes from the interleaved A/B over benchmark/.
func Compare(base, cur *File) *Comparison {
	c := &Comparison{}
	curByName := map[string]Result{}
	for _, r := range cur.Results {
		curByName[r.Name] = r
	}
	baseNames := map[string]bool{}
	for _, b := range base.Results {
		baseNames[b.Name] = true
		n, ok := curByName[b.Name]
		if !ok {
			c.MissingInNew = append(c.MissingInNew, b.Name)
			continue
		}
		pct := (n.NsPerOp - b.NsPerOp) / b.NsPerOp
		c.Deltas = append(c.Deltas, Delta{
			Name: b.Name, OldNs: b.NsPerOp, NewNs: n.NsPerOp, Pct: pct,
			OldAllocs: b.AllocsPerOp, NewAllocs: n.AllocsPerOp,
			Regression: n.AllocsPerOp > b.AllocsPerOp,
		})
	}
	for _, r := range cur.Results {
		if !baseNames[r.Name] {
			c.NewOnly = append(c.NewOnly, r.Name)
		}
	}
	sort.SliceStable(c.Deltas, func(i, j int) bool { return c.Deltas[i].Regression && !c.Deltas[j].Regression })
	return c
}

// MarkdownTable renders the per-benchmark delta table, regressions first and
// otherwise in baseline order, with the allocs/op verdict.
func (c *Comparison) MarkdownTable() string {
	var sb strings.Builder
	sb.WriteString("## Benchmark deltas (gate: allocs/op above baseline; ns/op for information)\n\n")
	sb.WriteString("| benchmark | old ns/op | new ns/op | Δ | allocs old→new | verdict |\n")
	sb.WriteString("|---|---:|---:|---:|---:|---|\n")
	for _, d := range c.Deltas {
		verdict := "ok"
		if d.Regression {
			verdict = "**REGRESSION**"
		}
		fmt.Fprintf(&sb, "| %s | %.0f | %.0f | %+.1f%% | %d→%d | %s |\n",
			d.Name, d.OldNs, d.NewNs, 100*d.Pct, d.OldAllocs, d.NewAllocs, verdict)
	}
	for _, n := range c.MissingInNew {
		fmt.Fprintf(&sb, "| %s | — | — | — | — | missing in current run |\n", n)
	}
	for _, n := range c.NewOnly {
		fmt.Fprintf(&sb, "| %s | — | — | — | — | new (no baseline) |\n", n)
	}
	return sb.String()
}

// gitCommit returns the short HEAD hash, or "" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the CPU model name from /proc/cpuinfo (best effort; empty
// on other platforms).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}
