// Command urllc-ab runs the repository's benchmark as an alternating A/B:
// the BASE revision, checked out into a temporary git worktree, against the
// working tree it is run from. Pair i runs both sides back to back with
// `bash benchmark/run.sh -workload all -trace 0`, BASE first in even pairs
// and the working tree first in odd ones, so drift on the machine falls on
// both sides alike. It then prints, per workload and end-to-end metric of
// BENCHMARK.json, each side's median and quartiles, the change of the
// median, the gap between the medians in units of BASE's interquartile
// range, and how many pairs the working tree won (ties count for neither),
// then each side's failed ops.
//
// Run it from the repository root:
//
//	go run ./cmd/urllc-ab -base HEAD~1 -pairs 10 -seconds 20 -seed 3
//	make ab BASE=HEAD~1 PAIRS=10 SECONDS=20 SEED=3
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"urllcsim/internal/version"
)

func main() {
	base := flag.String("base", "HEAD", "revision to compare the working tree against")
	pairs := flag.Int("pairs", 10, "alternating base/change pairs to run")
	seconds := flag.Int("seconds", 20, "benchmark -seconds of each run")
	seed := flag.Int("seed", 1, "benchmark -seed of every run")
	showVersion := flag.Bool("version", false, "print build and schema versions, then exit")
	flag.Parse()
	if *showVersion {
		version.Print(os.Stdout, "urllc-ab", nil, nil)
		return
	}
	if *pairs < 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "urllc-ab: -pairs and -seconds must be at least 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Stdout, *base, *pairs, *seconds, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "urllc-ab:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w io.Writer, base string, pairs, seconds, seed int) error {
	bench, err := readBenchmark("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("%w (run from the repository root)", err)
	}
	rev, err := output(ctx, "", "git", "rev-parse", "--verify", base+"^{commit}")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "urllc-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	if _, err := output(ctx, "", "git", "worktree", "add", "--detach", baseDir, rev); err != nil {
		return err
	}
	defer func() {
		// Not ctx: the worktree goes even after an interrupt.
		if err := exec.Command("git", "worktree", "remove", "--force", baseDir).Run(); err != nil {
			fmt.Fprintf(os.Stderr, "urllc-ab: removing the worktree at %s: %v\n", baseDir, err)
		}
	}()

	sides := [2]struct{ name, dir string }{{"base", baseDir}, {"change", "."}}
	var res [2][]runResult
	var ops [2]opCount
	for i := 0; i < pairs; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, s := range order {
			out, err := filepath.Abs(filepath.Join(tmp, fmt.Sprintf("%s-%02d.json", sides[s].name, i)))
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "urllc-ab: pair %d/%d: %s\n", i+1, pairs, sides[s].name)
			stdout, err := output(ctx, sides[s].dir, "bash", "benchmark/run.sh", "-workload", "all", "-trace", "0",
				"-seconds", strconv.Itoa(seconds), "-seed", strconv.Itoa(seed), "-out", out)
			if err != nil {
				return fmt.Errorf("%s run of pair %d: %w", sides[s].name, i+1, err)
			}
			if err := ops[s].add(stdout); err != nil {
				return fmt.Errorf("%s run of pair %d: %w", sides[s].name, i+1, err)
			}
			r, err := readResult(out)
			if err != nil {
				return err
			}
			res[s] = append(res[s], r)
		}
	}
	fmt.Fprintf(w, "%d alternating pairs, base %s (%.12s) vs the working tree: `bash benchmark/run.sh -workload all -trace 0 -seconds %d -seed %d`. Median [quartiles].\n\n",
		pairs, base, rev, seconds, seed)
	fmt.Fprintln(w, "| workload | metric | base | change | Δ median | gap / base IQR | change wins |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---:|---:|")
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			b, c := values(res[0], wl.Name, m.Name), values(res[1], wl.Name, m.Name)
			fmt.Fprintf(w, "| %s | `%s` (%s) | %s | %s | %s | %s | %d/%d |\n", wl.Name, m.Name, m.Unit,
				summary(b), summary(c), delta(b, c), gapIQR(b, c), wins(b, c, m.Better == "higher"), pairs)
		}
	}
	fmt.Fprintf(w, "\nFailed ops: base %d of %d, change %d of %d.\n",
		ops[0].failed, ops[0].attempted, ops[1].failed, ops[1].attempted)
	return nil
}

// opCount totals the ops the benchmark attempted and failed (an error, an
// unresolved packet or a wrong outcome digest) over a side's runs.
type opCount struct{ attempted, failed int }

// add reads the summary line that ends a run's standard output.
func (c *opCount) add(stdout string) error {
	var line struct{ Attempted, Failed int }
	last := stdout[strings.LastIndexByte(stdout, '\n')+1:]
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return fmt.Errorf("reading the summary line %q: %w", last, err)
	}
	c.attempted += line.Attempted
	c.failed += line.Failed
	return nil
}

// output runs a command in dir (the current directory when empty) and
// returns its trimmed standard output; its standard error passes through.
func output(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// benchmark is the part of BENCHMARK.json the table needs.
type benchmark struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
}

func readBenchmark(path string) (*benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// runResult is one run's -out file: workload → metric → value.
type runResult map[string]map[string]float64

func readResult(path string) (runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Workloads map[string]map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r := runResult{}
	for wl, ms := range f.Workloads {
		r[wl] = map[string]float64{}
		for m, v := range ms {
			r[wl][m] = v.Value
		}
	}
	return r, nil
}

// values is one metric of one workload across a side's runs, in pair order;
// NaN where a run lacks it.
func values(runs []runResult, wl, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		v, ok := r[wl][metric]
		if !ok {
			v = math.NaN()
		}
		out[i] = v
	}
	return out
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func summary(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75))
}

func delta(b, c []float64) string {
	mb, mc := quantile(b, 0.5), quantile(c, 0.5)
	if mb == 0 {
		return "—"
	}
	return fmt.Sprintf("%+.1f %%", 100*(mc/mb-1))
}

// gapIQR is |median(change) − median(base)| over base's interquartile
// range: above 1, the medians differ by more than base's own spread.
func gapIQR(b, c []float64) string {
	gap := math.Abs(quantile(c, 0.5) - quantile(b, 0.5))
	iqr := quantile(b, 0.75) - quantile(b, 0.25)
	switch {
	case gap == 0:
		return "0"
	case iqr == 0:
		return "∞"
	}
	return fmt.Sprintf("%.1f", gap/iqr)
}

// wins counts the pairs in which the change is strictly better.
func wins(b, c []float64, higher bool) int {
	n := 0
	for i := range b {
		if higher && c[i] > b[i] || !higher && c[i] < b[i] {
			n++
		}
	}
	return n
}
