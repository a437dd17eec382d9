// Command urllc-bench runs the repository's component micro-benchmarks
// (internal/bench) in-process via testing.Benchmark and emits one
// schema-versioned BENCH_<timestamp>.json recording machine, commit and
// per-benchmark ns/op, B/op, allocs/op and rate extras.
//
//	urllc-bench                          # run suite, write BENCH_<ts>.json
//	urllc-bench -benchtime 100ms -out -  # quick run, no file
//	urllc-bench -baseline OLD.json -check
//	urllc-bench -baseline OLD.json -input NEW.json -check
//	urllc-bench -validate FILE.json
//
// With -check, the exit status is the regression gate: non-zero when any
// benchmark common to both files allocates more per op than its baseline,
// with a per-benchmark delta table on stdout. Allocation counts are exact,
// so the gate needs no tolerance; ns/op is reported for information only.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"

	"urllcsim/internal/bench"
	"urllcsim/internal/version"
)

func main() {
	testing.Init() // registers -test.* flags; required before testing.Benchmark
	out := flag.String("out", "", "write the BENCH JSON here (default BENCH_<timestamp>.json; \"-\" for none)")
	baseline := flag.String("baseline", "", "BENCH JSON to compare against")
	input := flag.String("input", "", "compare this BENCH JSON instead of running the suite (requires -baseline)")
	check := flag.Bool("check", false, "exit non-zero when any benchmark allocates more per op than in -baseline")
	benchtime := flag.String("benchtime", "1s", "per-benchmark measuring time (testing syntax: 1s, 100ms, 50x)")
	run := flag.String("run", "", "regexp selecting suite entries to run")
	validate := flag.String("validate", "", "validate this BENCH JSON against the schema and exit")
	list := flag.Bool("list", false, "list the declared suite and exit")
	showVersion := flag.Bool("version", false, "print build and schema versions, then exit")
	flag.Parse()

	if *showVersion {
		version.Print(os.Stdout, "urllc-bench",
			[]string{bench.Schema}, []string{bench.Schema})
		return
	}

	if err := mainErr(*out, *baseline, *input, *benchtime, *run,
		*validate, *check, *list); err != nil {
		fmt.Fprintln(os.Stderr, "urllc-bench:", err)
		os.Exit(1)
	}
}

func mainErr(out, baseline, input, benchtime, runPat, validate string,
	check, list bool) error {
	if list {
		for _, bm := range bench.Suite() {
			fmt.Printf("%-24s %s\n", bm.Name, bm.Desc)
		}
		return nil
	}
	if validate != "" {
		f, err := bench.Load(validate) // Load validates
		if err != nil {
			return err
		}
		fmt.Printf("%s: valid %s file, %d benchmarks, recorded %s\n",
			validate, f.Schema, len(f.Results), f.Timestamp)
		return nil
	}
	var (
		cur *bench.File
		err error
	)
	if input != "" {
		if baseline == "" {
			return fmt.Errorf("-input requires -baseline")
		}
		if cur, err = bench.Load(input); err != nil {
			return err
		}
	} else {
		if cur, err = runSuite(benchtime, runPat); err != nil {
			return err
		}
		if err := cur.Validate(); err != nil {
			return fmt.Errorf("produced an invalid BENCH file (bug): %w", err)
		}
		path := out
		if path == "" {
			path = "BENCH_" + time.Now().UTC().Format("20060102T150405Z") + ".json"
		}
		if path != "-" {
			if err := cur.Write(path); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", path, len(cur.Results))
		}
	}

	if baseline == "" {
		return nil
	}
	base, err := bench.Load(baseline)
	if err != nil {
		return err
	}
	cmp := bench.Compare(base, cur)
	fmt.Print(cmp.MarkdownTable())
	if regs := cmp.Regressions(); check && len(regs) > 0 {
		return fmt.Errorf("%d benchmark(s) allocate more per op than the baseline: %v", len(regs), regs)
	}
	if check {
		fmt.Fprintln(os.Stderr, "regression gate: ok")
	}
	return nil
}

// runSuite executes the declared benchmarks in suite order and assembles the
// BENCH file, echoing a human-readable line per benchmark to stderr.
func runSuite(benchtime, runPat string) (*bench.File, error) {
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, fmt.Errorf("benchtime %q: %w", benchtime, err)
	}
	var sel *regexp.Regexp
	if runPat != "" {
		var err error
		if sel, err = regexp.Compile(runPat); err != nil {
			return nil, fmt.Errorf("-run %q: %w", runPat, err)
		}
	}
	f := bench.NewFile(benchtime)
	for _, bm := range bench.Suite() {
		if sel != nil && !sel.MatchString(bm.Name) {
			continue
		}
		r, err := bm.Run()
		if err != nil {
			return nil, err
		}
		res := bench.Result{
			Name:        bm.Name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Extra = r.Extra
		}
		f.Results = append(f.Results, res)
		fmt.Fprintf(os.Stderr, "%-24s %12d ns/op %10d B/op %8d allocs/op  (n=%d)\n",
			bm.Name, int64(res.NsPerOp), res.BytesPerOp, res.AllocsPerOp, r.N)
	}
	if len(f.Results) == 0 {
		return nil, fmt.Errorf("no suite entries matched")
	}
	return f, nil
}
