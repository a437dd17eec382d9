package urllcsim_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported funcs, methods, vars and types that
// non-test Go uses nowhere, each with the reason it stays, keyed as the
// check reports them: "<package dir>.<name>" or "<package
// dir>.<receiver type>.<method>". Anything else that only tests reach is
// dead weight: delete it, or call it from the program.
var testOnlyAllowed = map[string]string{
	// References: a simpler or independent computation a test compares the
	// program's answer with.
	"internal/channel.ApplyAWGN":                          "the IQ noise of the Monte-Carlo check that BER and the SNR convention agree",
	"internal/channel.BLERUncoded":                        "the no-coding bound the coded BLER must beat (coding-gain check)",
	"internal/channel.TransportBLER":                      "per-block BLER the PHY's memoised BLER is compared with bit for bit",
	"internal/channel.Blockage.StationaryBlockedFraction": "closed-form blocked share the simulated chain is checked against",
	"internal/channel.Blockage.Blocked":                   "state probe the stationary-share and BLER-memo checks sample",
	"internal/metrics.LogHistogram.StdApprox":             "bucket-level std, part of the view the order-invariance checks compare",
	"internal/metrics.LogHistogram.BucketWidth":           "the error bound quantile checks allow",
	"internal/obs/analyze.Journey.BudgetExact":            "the span-sum = latency invariant the report round trip asserts",
	"internal/nr.Grid.KindAt":                             "symbol kind at a time, the check that RACH messages land in UL/DL symbols",
	"internal/radio.Head.MeanOneWay":                      "jitter-free one-way latency the radio-model checks compare heads by",
	"internal/proc.Profile.TotalMean":                     "summed layer means the Table 2 and ASIC profile checks pin",
	"internal/proc.IdealProfile":                          "zero-processing profile, the theoretical-paper ablation the profile checks use",
	"internal/proc.NoJitter":                              "the jitter-free OS model, checked to sample exactly 0",
	"internal/bits.Writer.Align":                          "octet padding, checked with the codec primitives",
	"internal/bits.Reader.Aligned":                        "octet-boundary probe, checked with the codec primitives",
	"internal/bits.Reader.Offset":                         "bits consumed, checked with the codec primitives",

	// Public facade API, each shown by its facade test.
	"urllcsim.MinimumFR1Slot": "the §5 shortest FR1 slot, pinned by TestMinimumFR1Slot",
	"urllcsim.MeetsURLLC":     "whether a configuration's worst case fits the 0.5 ms deadline, shown by ExampleMeetsURLLC",
	"urllcsim.Table1":         "the paper's Table 1: five configurations × three modes at µ2, checked by TestTable1PublicAPI",

	// Observation helpers: read-only views tests inspect state through.
	"internal/stack.RLC.QueueLen":      "queued SDUs, read by RLC and node queue checks",
	"internal/nr.Grid.CountKind":       "symbols of a kind per period, read by the grid and pattern checks",
	"internal/obs.Recorder.Enabled":    "whether a (possibly nil) recorder collects",
	"internal/experiments.Fig6Summary": "Fig. 6 panel stats for the experiment checks, bench_test.go and EXPERIMENTS.md",
	"internal/obs.Recorder.Reset":      "reuse of one recorder across runs: the recycled-recorder allocation gates of TestTracingOverheadInterleaved and TestCellObserverTax measure a warmed recorder through it",

	// Renderings for diagnostics, each pinned by its own test.
	"internal/obs.TracerFunc":             "adapts a plain func to sim.EngineSink for benchmark/benchmark_test.go's TestSinkForwards alone; goes with ROADMAP item 3's next benchmark change",
	"internal/obs.TracerFunc.EngineEvent": "the adapter's sim.EngineSink method",

	// Engine controls the benchmark module's tests and the engine tests drive.
	"internal/sim.Engine.After":  "relative scheduling, called by benchmark/benchmark_test.go and the engine, obs and prof tests",
	"internal/sim.Engine.RunAll": "run with no horizon, called by benchmark/benchmark_test.go and the engine, obs and prof tests",
	"internal/sim.Engine.Stop":   "stop after the current event, which TestLaneDifferential's scripts issue",
	"internal/sim.Engine.Step":   "fire one event, how TestLaneDifferential and TestWheelDifferential compare the lane and the wheel event by event",
}

// TestNoTestOnlyExports fails when an exported func, method, package-level
// var or type declared in non-test Go (outside benchmark/, whose files count
// only as callers) is used nowhere in non-test Go. Consts are left out: an
// unused member of an iota enumeration or a build-tag switch still
// documents its set. Every non-test package is type-checked from source
// (go/types, with the standard library through the source importer), so a
// use is of one declared object, not of anything that shares its name. A
// method is used when a call, method value or method expression resolves
// to it, or when non-test Go converts its receiver type to an interface
// that reaches it: one that has the method (the engine calls Fire through
// sim.Handler), or, for the dynamic checks behind an interface value, one
// the receiver implements that the standard library declares or the
// module type-asserts to (fmt calls String through fmt.Stringer).
func TestNoTestOnlyExports(t *testing.T) {
	l, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for key, obj := range l.decls {
		if l.used[obj] {
			continue
		}
		if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil && l.reached(f) {
			continue
		}
		found[key] = true
	}
	var extra, stale []string
	for key := range found {
		if _, ok := testOnlyAllowed[key]; !ok {
			extra = append(extra, key)
		}
	}
	for key := range testOnlyAllowed {
		if !found[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(extra)
	sort.Strings(stale)
	if len(extra) > 0 {
		t.Errorf("exported but used only by tests (delete, or allowlist with a reason): %s", strings.Join(extra, ", "))
	}
	if len(stale) > 0 {
		t.Errorf("allowlisted but now used by non-test Go, or gone (drop the entry): %s", strings.Join(stale, ", "))
	}
}

// module is the type-checked non-test Go of one module: its exported
// declarations, keyed "<package dir>.<name>" or "<package dir>.<receiver
// type>.<method>", every object its code uses, and the interfaces its code
// converts each named type's values to.
type module struct {
	path  string // module path, from go.mod
	root  string
	fset  *token.FileSet
	std   types.ImporterFrom
	dirs  map[string]string // import path → directory
	pkgs  map[string]*types.Package
	files []*ast.File
	info  *types.Info
	recv  map[*ast.Ident]bool // the identifiers in methods' receiver types
	decls map[string]types.Object
	used  map[types.Object]bool

	conv    map[*types.TypeName][]*types.Interface // named type → interfaces its values become
	dynamic []*types.Interface                     // interfaces behind dynamic method checks
}

// reached reports whether method f is reachable through an interface its
// receiver type is converted to in non-test Go.
func (m *module) reached(f *types.Func) bool {
	recv := f.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	convs := m.conv[named.Obj()]
	for _, it := range convs {
		if hasMethod(it, f.Name()) {
			return true
		}
	}
	if len(convs) == 0 {
		return false
	}
	for _, it := range m.dynamic {
		if hasMethod(it, f.Name()) && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := range it.NumMethods() {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// loadModule type-checks every directory under root that holds non-test Go
// for the default build context (dot directories and testdata skipped).
// Module packages are checked from this tree; benchmark/, a module of its
// own that imports this one, is checked as the package the module path
// plus "/benchmark" names.
func loadModule(root string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{
		path: modfile(gomod), root: root, fset: token.NewFileSet(),
		dirs: map[string]string{}, pkgs: map[string]*types.Package{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{}, Instances: map[*ast.Ident]types.Instance{},
			Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
		},
		recv:  map[*ast.Ident]bool{},
		decls: map[string]types.Object{}, used: map[types.Object]bool{},
		conv: map[*types.TypeName][]*types.Interface{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil).(types.ImporterFrom)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := m.path
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		m.dirs[imp] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	for imp := range m.dirs {
		if _, err := m.load(imp); err != nil {
			return nil, err
		}
	}
	for id, obj := range m.info.Uses {
		if m.recv[id] {
			continue // a method's receiver type names its own type
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		m.used[obj] = true
	}
	w := &convWalker{m: m}
	for _, f := range m.files {
		ast.Walk(w, f)
	}
	// Instantiating a generic with a type argument converts it to the type
	// parameter's constraint, whose methods the generic code calls; a
	// constraint without methods reaches none.
	for id, inst := range m.info.Instances {
		var tparams *types.TypeParamList
		switch o := m.info.Uses[id].(type) {
		case *types.Func:
			tparams = o.Type().(*types.Signature).TypeParams()
		case *types.TypeName:
			tparams = o.Type().(*types.Named).TypeParams()
		}
		for i := range tparams.Len() {
			if it, ok := tparams.At(i).Constraint().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				w.record(inst.TypeArgs.At(i), it, false, map[types.Type]bool{})
			}
		}
	}
	// The standard library checks an interface value's dynamic type against
	// its own interfaces: fmt against fmt.Stringer and error, for one.
	for _, pkg := range m.pkgs {
		for _, dep := range pkg.Imports() {
			if _, ours := m.dirs[dep.Path()]; ours {
				continue
			}
			for _, name := range dep.Scope().Names() {
				if tn, ok := dep.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						m.dynamic = append(m.dynamic, it)
					}
				}
			}
		}
	}
	m.dynamic = append(m.dynamic, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return m, nil
}

// convWalker records the interface conversions of non-test Go: call
// arguments, assignments, declarations, returns, composite-literal
// elements and channel sends whose target is an interface, and the
// interfaces of type assertions and type switches.
type convWalker struct {
	m       *module
	results *types.Tuple // the enclosing function's results
}

func (w *convWalker) Visit(n ast.Node) ast.Visitor {
	info := w.m.info
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Body != nil {
			ast.Walk(&convWalker{m: w.m, results: info.Defs[n.Name].Type().(*types.Signature).Results()}, n.Body)
		}
		return nil
	case *ast.FuncLit:
		ast.Walk(&convWalker{m: w.m, results: info.TypeOf(n).(*types.Signature).Results()}, n.Body)
		return nil
	case *ast.CallExpr:
		w.call(n)
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				w.to(info.TypeOf(n.Lhs[i]), n.Rhs[i], false)
			}
		}
	case *ast.ValueSpec:
		if n.Type != nil {
			for _, v := range n.Values {
				w.to(info.TypeOf(n.Type), v, false)
			}
		}
	case *ast.ReturnStmt:
		if w.results != nil && len(n.Results) == w.results.Len() {
			for i, r := range n.Results {
				w.to(w.results.At(i).Type(), r, false)
			}
		}
	case *ast.CompositeLit:
		w.lit(n)
	case *ast.SendStmt:
		if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
			w.to(ch.Elem(), n.Value, false)
		}
	case *ast.TypeAssertExpr:
		if n.Type != nil {
			w.assert(n.Type)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range n.Body.List {
			for _, x := range c.(*ast.CaseClause).List {
				w.assert(x)
			}
		}
	}
	return w
}

// to records that x's value is converted to target, when target is an
// interface.
func (w *convWalker) to(target types.Type, x ast.Expr, deep bool) {
	if target == nil {
		return
	}
	if _, ok := target.(*types.TypeParam); ok {
		return
	}
	it, ok := target.Underlying().(*types.Interface)
	if !ok {
		return
	}
	if src := w.m.info.TypeOf(x); src != nil {
		w.record(src, it, deep, map[types.Type]bool{})
	}
}

// record notes t's conversion to it, and that of every type embedded in
// t, whose methods t promotes. A deep conversion, into a printer, also
// records the types of t's exported fields and of its elements, as
// conversions to an empty interface: fmt checks each for String and Error
// as it prints them.
func (w *convWalker) record(t types.Type, it *types.Interface, deep bool, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	if p, ok := t.(*types.Pointer); ok {
		w.record(p.Elem(), it, deep, seen)
		return
	}
	if named, ok := t.(*types.Named); ok {
		tn := named.Origin().Obj()
		w.m.conv[tn] = append(w.m.conv[tn], it)
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			f := u.Field(i)
			if f.Embedded() {
				w.record(f.Type(), it, deep, seen)
			} else if deep && f.Exported() {
				w.record(f.Type(), anyIface, deep, seen)
			}
		}
	case *types.Slice:
		if deep {
			w.record(u.Elem(), anyIface, deep, seen)
		}
	case *types.Array:
		if deep {
			w.record(u.Elem(), anyIface, deep, seen)
		}
	case *types.Map:
		if deep {
			w.record(u.Key(), anyIface, deep, seen)
			w.record(u.Elem(), anyIface, deep, seen)
		}
	}
}

// printers are the packages whose functions walk the values they are
// handed, calling String, Error or a marshaler on the parts.
var printers = map[string]bool{"fmt": true, "log": true, "encoding/json": true}

// calleeIdent is the identifier naming a call's function: f or x.f.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	}
	return nil
}

// anyIface is the empty interface.
var anyIface = types.NewInterfaceType(nil, nil).Complete()

// call records the conversions of a call's arguments to its parameters,
// of an explicit conversion to an interface type, and of append's
// elements.
func (w *convWalker) call(n *ast.CallExpr) {
	info := w.m.info
	tv := info.Types[n.Fun]
	switch {
	case tv.IsType():
		if len(n.Args) == 1 {
			w.to(tv.Type, n.Args[0], false)
		}
		return
	case tv.IsBuiltin():
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && !n.Ellipsis.IsValid() {
			if s, ok := info.TypeOf(n.Args[0]).Underlying().(*types.Slice); ok {
				w.elems(s.Elem(), n.Args[1:])
			}
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	deep := false
	if f, ok := info.Uses[calleeIdent(n.Fun)].(*types.Func); ok && f.Pkg() != nil {
		deep = printers[f.Pkg().Path()]
	}
	params := sig.Params()
	for i, a := range n.Args {
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if !n.Ellipsis.IsValid() {
				w.to(params.At(params.Len()-1).Type().(*types.Slice).Elem(), a, deep)
			}
		case i < params.Len():
			w.to(params.At(i).Type(), a, deep)
		}
	}
}

// lit records the conversions of a composite literal's elements to its
// field, element, key and value types.
func (w *convWalker) lit(n *ast.CompositeLit) {
	t := w.m.info.TypeOf(n)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if f, ok := w.m.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
					w.to(f.Type(), kv.Value, false)
				}
			} else if i < u.NumFields() {
				w.to(u.Field(i).Type(), e, false)
			}
		}
	case *types.Slice:
		w.elems(u.Elem(), n.Elts)
	case *types.Array:
		w.elems(u.Elem(), n.Elts)
	case *types.Map:
		for _, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				w.to(u.Key(), kv.Key, false)
				w.to(u.Elem(), kv.Value, false)
			}
		}
	}
}

func (w *convWalker) elems(elem types.Type, elts []ast.Expr) {
	for _, e := range elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			e = kv.Value
		}
		w.to(elem, e, false)
	}
}

// assert records the interface of a type assertion or type-switch case.
func (w *convWalker) assert(x ast.Expr) {
	if t := w.m.info.TypeOf(x); t != nil {
		if it, ok := t.Underlying().(*types.Interface); ok {
			w.m.dynamic = append(w.m.dynamic, it)
		}
	}
}

// modfile returns the module path a go.mod declares.
func modfile(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// Import implements types.Importer.
func (m *module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.root, 0)
}

// ImportFrom implements types.ImporterFrom: module packages are loaded from
// this tree, everything else from the standard library's source.
func (m *module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := m.dirs[path]; ok {
		return m.load(path)
	}
	return m.std.ImportFrom(path, dir, mode)
}

// load type-checks the package at import path imp once, and records its
// exported declarations unless it is under benchmark/.
func (m *module) load(imp string) (*types.Package, error) {
	if pkg, ok := m.pkgs[imp]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", imp)
		}
		return pkg, nil
	}
	m.pkgs[imp] = nil
	dir := m.dirs[imp]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		delete(m.pkgs, imp)
		delete(m.dirs, imp)
		return nil, nil
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(imp, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[imp] = pkg
	m.files = append(m.files, files...)
	rel := strings.TrimPrefix(strings.TrimPrefix(imp, m.path), "/")
	if rel == "benchmark" || strings.HasPrefix(rel, "benchmark/") {
		return pkg, nil
	}
	if rel == "" {
		rel = m.path
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							m.recv[id] = true
						}
						return true
					})
				}
				if !d.Name.IsExported() {
					continue
				}
				key := rel + "." + d.Name.Name
				if d.Recv != nil {
					key = rel + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				m.decls[key] = m.info.Defs[d.Name]
			case *ast.GenDecl:
				if d.Tok != token.VAR && d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					var ids []*ast.Ident
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						ids = spec.Names
					case *ast.TypeSpec:
						ids = []*ast.Ident{spec.Name}
					}
					for _, id := range ids {
						if id.IsExported() {
							m.decls[rel+"."+id.Name] = m.info.Defs[id]
						}
					}
				}
			}
		}
	}
	return pkg, nil
}

// recvName is the type name of a method's receiver expression: T, *T, T[P]
// or *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprint(x)
		}
	}
}
