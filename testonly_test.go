package urllcsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported funcs, methods, vars and types that
// non-test Go names nowhere but in their declaration, each with the reason
// it stays. Anything else that only tests reach is dead weight: delete it,
// or call it from the program.
var testOnlyAllowed = map[string]string{
	// References: a simpler or independent computation a test compares the
	// program's answer with.
	"ApplyAWGN":                 "channel: the IQ noise of the Monte-Carlo check that BER and the SNR convention agree",
	"BLERUncoded":               "channel: the no-coding bound the coded BLER must beat (coding-gain check)",
	"TransportBLER":             "channel: per-block BLER the PHY's memoised BLER is compared with bit for bit",
	"StationaryBlockedFraction": "channel.Blockage: closed-form blocked share the simulated chain is checked against",
	"Blocked":                   "channel.Blockage: state probe the stationary-share and BLER-memo checks sample",
	"StdApprox":                 "metrics.LogHistogram: bucket-level std, part of the view the order-invariance checks compare",
	"BucketWidth":               "metrics.LogHistogram: the error bound quantile checks allow",
	"BudgetExact":               "analyze.Journey: the span-sum = latency invariant the report round trip asserts",
	"KindAt":                    "nr.Grid: symbol kind at a time, the check that RACH messages land in UL/DL symbols",
	"MeanOneWay":                "radio.Head: jitter-free one-way latency the radio-model checks compare heads by",
	"TotalMean":                 "proc.Profile: summed layer means the Table 2 and ASIC profile checks pin",
	"IdealProfile":              "proc: zero-processing profile, the theoretical-paper ablation the profile checks use",
	"NoJitter":                  "proc: the jitter-free OS model, checked to sample exactly 0",
	"DecodeEcho":                "pdu: inverse of the GTP-U echo encoder, for its round-trip and fuzz checks",
	"Align":                     "bits.Writer: octet padding, checked with the codec primitives",
	"Aligned":                   "bits.Reader: octet-boundary probe, checked with the codec primitives",
	"Offset":                    "bits.Reader: bits consumed, checked with the codec primitives",
	"MinimumFR1Slot":            "urllcsim facade: the §5 shortest FR1 slot, public API",

	// Observation helpers: read-only views tests inspect state through.
	"QueueLen":    "stack.RLC: queued SDUs, read by RLC and node queue checks",
	"CountKind":   "nr.Grid: symbols of a kind per period, read by the grid and pattern checks",
	"Enabled":     "obs.Recorder: whether a (possibly nil) recorder collects",
	"Fig6Summary": "experiments: Fig. 6 panel stats for the experiment checks, bench_test.go and EXPERIMENTS.md",

	// Engine controls the benchmark module's tests and the engine tests drive.
	"After":  "sim.Engine: relative scheduling, called by benchmark/benchmark_test.go and the engine, obs and prof tests",
	"RunAll": "sim.Engine: run with no horizon, called by benchmark/benchmark_test.go and the engine, obs and prof tests",
	"Stop":   "sim.Engine: stop after the current event, checked by the engine tests",
}

// TestNoTestOnlyExports fails when an exported func, method, package-level
// var or type declared in non-test Go (outside benchmark/, whose files count
// only as callers) is named nowhere in non-test Go but in its own
// declaration. Consts are left out: an unused member of an iota enumeration
// or a build-tag switch still documents its set. The scan is by name: a
// method counts as called when any non-test file names anything of that
// name.
func TestNoTestOnlyExports(t *testing.T) {
	var decls []string
	named := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident) {
			own[id] = true
			if id.IsExported() && !strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) {
				decls = append(decls, id.Name)
			}
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				declare(dd.Name)
			case *ast.GenDecl:
				if dd.Tok != token.VAR && dd.Tok != token.TYPE {
					continue
				}
				for _, spec := range dd.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id)
						}
					case *ast.TypeSpec:
						declare(spec.Name)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, name := range decls {
		if !named[name] {
			found[name] = true
		}
	}
	var extra, stale []string
	for name := range found {
		if _, ok := testOnlyAllowed[name]; !ok {
			extra = append(extra, name)
		}
	}
	for name := range testOnlyAllowed {
		if !found[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(extra)
	sort.Strings(stale)
	if len(extra) > 0 {
		t.Errorf("exported but named only by tests (delete, or allowlist with a reason): %s", strings.Join(extra, ", "))
	}
	if len(stale) > 0 {
		t.Errorf("allowlisted but now named by non-test Go (drop the entry): %s", strings.Join(stale, ", "))
	}
}
