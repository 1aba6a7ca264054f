package cham

// "Nothing beside the hot path" as a check: every function and method a
// non-test file of the arithmetic and kernel packages, the noise
// estimator, the card runtime or the serving half declares is used by
// some non-test file of the module or of the benchmark (its own module,
// which pins part of this surface), or by another package's tests (the
// API those tests are written against), or is listed below with the part
// of the paper it reproduces. What only its own package's tests reach
// fails the check. A use is an identifier the type checker resolves to
// the declaration, never a bare name: strings.Join does not reach a Join
// method. Type-checking the module and its tests from source takes a few
// seconds, so the test is skipped under -short and run by `make orphans`
// (tier 2). With -v it also logs, without failing, what only the benchmark
// keeps alive: the declarations it reaches, directly or through one
// another, that no other non-test code uses.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// orphanScope lists the packages whose declarations must all be reached:
// the arithmetic and kernel packages, the serving half above them, exp (the
// accelerator and cost models with the experiments over them), the
// applications and baselines they feed, and chamnp, the array layer the
// examples and the benchmark drive.
var orphanScope = []string{
	"mod", "ntt", "ring", "rlwe", "bfv", "lwe", "core", "noise", "runtime",
	"apps/beaver", "wire", "server", "client", "cluster", "obs", "obs/trace",
	"exp", "security", "apps/heterolr", "paillier", "kat", "vec", "obs/metricshttp",
	"chamnp",
}

// orphanAllow holds what stays without such a caller, and why: a file
// ("ntt/cg.go") or one declaration ("ring.Ring.Rev") against the part of
// the paper it reproduces. A row that excuses nothing fails the test too,
// so the table cannot outlive what it is for.
var orphanAllow = map[string]string{
	"ntt/cg.go":                         "Alg. 4 constant-geometry dataflow (BenchmarkAblationNTTDataflow)",
	"ntt/banked.go":                     "Fig. 3/4 banked NTT unit, Table III cycle model",
	"mod.Modulus.MulShiftAdd":           "§IV-A.3 shift-add reduction (BenchmarkAblationModReduction)",
	"mod.Modulus.MulFold":               "§IV-A.3 folding reduction (BenchmarkAblationModReduction)",
	"ring.Ring.Rev":                     "Table I REV",
	"ring.Ring.ShiftNeg":                "Table I SHIFTNEG",
	"core/batch.go":                     "§II-E batch-encoded baseline (root API, BenchmarkAblationEncoding)",
	"core/diagonal.go":                  "§II-E diagonal baseline (BenchmarkAblationDiagonal)",
	"noise.Estimator.KeySwitchAdditive": "§II-F noise of one KEYSWITCH over the special modulus p (TestKeySwitchBound)",
	"paillier/paillier.go":              "Fig. 7 Paillier baseline of HeteroLR (DESIGN.md §4 row 8)",
	"security.NominalBits":              "§II-F \"space of 109 bit\" (35+35+39 limb bit-lengths)",
}

// checkedPkg is one module package type-checked from its non-test files.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// moduleImporter type-checks module packages itself (keeping their
// types.Info, one object universe for the whole module) and leaves
// everything else to the standard library's source importer.
type moduleImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checkedPkg
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path != "cham" && !strings.HasPrefix(path, "cham/") {
		return m.std.Import(path)
	}
	if c, ok := m.pkgs[path]; ok {
		return c.pkg, nil
	}
	dir := "." + strings.TrimPrefix(path, "cham")
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	c := &checkedPkg{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: m}
	c.pkg, err = conf.Check(path, m.fset, c.files, c.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = c
	return c.pkg, nil
}

// recvType returns the named type a method is declared on (pointer
// stripped), or nil for a plain function.
func recvType(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// funcKey names a function "pkg.Func" and a method "pkg.Type.Method",
// with pkg the last path element.
func funcKey(fn *types.Func) string {
	name := fn.Name()
	if n := recvType(fn); n != nil {
		name = n.Obj().Name() + "." + name
	}
	return filepath.Base(fn.Pkg().Path()) + "." + name
}

func TestNoOrphans(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	fset := token.NewFileSet()
	imp := &moduleImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*checkedPkg{}}

	// One walk over the tree: every directory with Go files is a package.
	// Its non-test files are type-checked through the importer (the
	// benchmark, a module of its own, like the rest); its test files are
	// checked on their own below, against the same importer, so what they
	// use resolves to the declarations the importer holds.
	type testPkg struct {
		path          string
		dir           string
		inPkg, extPkg []string // in-package and external test files
	}
	var tests []testPkg
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if err != nil {
			return nil // no Go files here
		}
		path := strings.TrimSuffix("cham/"+filepath.ToSlash(p), "/.")
		if len(bp.GoFiles) > 0 {
			if _, err := imp.Import(path); err != nil {
				return err
			}
		}
		if len(bp.TestGoFiles)+len(bp.XTestGoFiles) > 0 {
			tests = append(tests, testPkg{path: path, dir: p, inPkg: bp.TestGoFiles, extPkg: bp.XTestGoFiles})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Uses from test files: a function of another package than the one
	// under test that an identifier in a test file resolves to. An
	// in-package test is checked with its package's non-test files, as a
	// copy of that package, so its own declarations never resolve to the
	// importer's.
	usedByOtherTests := map[*types.Func]bool{}
	for _, tp := range tests {
		for _, group := range []struct {
			path  string
			names []string
		}{
			{tp.path, tp.inPkg},
			{tp.path + "_test", tp.extPkg},
		} {
			if len(group.names) == 0 {
				continue
			}
			var files, own []*ast.File
			if c := imp.pkgs[tp.path]; c != nil && group.path == tp.path {
				files = append(files, c.files...)
			}
			for _, name := range group.names {
				f, err := parser.ParseFile(fset, filepath.Join(tp.dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
				own = append(own, f)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			if _, err := (&types.Config{Importer: imp}).Check(group.path, fset, files, info); err != nil {
				t.Fatalf("type-checking the tests of %s: %v", tp.path, err)
			}
			for _, f := range own {
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() != tp.path {
							usedByOtherTests[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}

	inScope := map[string]bool{}
	for _, s := range orphanScope {
		inScope["cham/internal/"+s] = true
	}

	// Uses: an identifier resolving to the function anywhere outside its
	// own declaration, kept with its user — the enclosing function
	// declaration, nil outside one, or bench for the benchmark module — for
	// the benchmark-only report below; interface method sets a production
	// type satisfies.
	usedBy := map[*types.Func][]types.Object{}
	bench := types.NewLabel(token.NoPos, nil, "benchmark")
	var ifaces []*types.Interface
	seenPkg := map[*types.Package]bool{}
	var collectIfaces func(p *types.Package)
	collectIfaces = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			collectIfaces(q)
		}
	}
	// error, and the Unwrap and Is that errors.Is and errors.As call
	// through.
	errType := types.Universe.Lookup("error").Type()
	boolType := types.Universe.Lookup("bool").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil,
		nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	is := types.NewFunc(token.NoPos, nil, "Is", types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)),
		types.NewTuple(types.NewVar(token.NoPos, nil, "", boolType)), false))
	ifaces = append(ifaces, errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(),
		types.NewInterfaceType([]*types.Func{is}, nil).Complete())
	for path, c := range imp.pkgs {
		collectIfaces(c.pkg)
		for _, f := range c.files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = c.info.Defs[fd.Name]
				}
				user := self
				if path == "cham/benchmark" || strings.HasPrefix(path, "cham/benchmark/") {
					user = bench
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := c.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							usedBy[fn.Origin()] = append(usedBy[fn.Origin()], user)
						}
					}
					return true
				})
			}
		}
	}
	// What only the benchmark keeps alive: the functions it reaches, directly
	// or through one another, less any that some other non-test code uses.
	// Logged, never failed: the benchmark pins its probes' surface.
	benchOnly := map[*types.Func]bool{}
	viaBench := func(u types.Object) bool {
		f, _ := u.(*types.Func)
		return u == bench || benchOnly[f]
	}
	for changed := true; changed; {
		changed = false
		for fn, users := range usedBy {
			if !benchOnly[fn] && slices.ContainsFunc(users, viaBench) {
				benchOnly[fn], changed = true, true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fn := range benchOnly {
			if slices.ContainsFunc(usedBy[fn], func(u types.Object) bool { return !viaBench(u) }) {
				delete(benchOnly, fn)
				changed = true
			}
		}
	}
	implementsSome := func(fn *types.Func) bool {
		T := recvType(fn)
		if T == nil {
			return false
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && types.Implements(types.NewPointer(T), it) {
					return true
				}
			}
		}
		return false
	}

	var orphans, benchKept []string
	excused := map[string]bool{}
	for path, c := range imp.pkgs {
		if !inScope[path] {
			continue
		}
		for _, f := range c.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				fn := c.info.Defs[fd.Name].(*types.Func)
				pos := fset.Position(fd.Pos())
				if benchOnly[fn] && !implementsSome(fn) {
					benchKept = append(benchKept, funcKey(fn)+"  ("+pos.String()+")")
				}
				if len(usedBy[fn]) > 0 || implementsSome(fn) {
					continue
				}
				key, file := funcKey(fn), strings.TrimPrefix(filepath.ToSlash(pos.Filename), "internal/")
				if _, ok := orphanAllow[file]; ok {
					key = file
				}
				if _, ok := orphanAllow[key]; ok {
					excused[key] = true
					continue
				}
				// Another package's tests count only after the allowlist, so a
				// paper artefact keeps its row however many tests run it.
				if usedByOtherTests[fn] {
					continue
				}
				orphans = append(orphans, key+"  ("+pos.String()+")")
			}
		}
	}
	sort.Strings(benchKept)
	for _, k := range benchKept {
		t.Logf("only the benchmark calls: %s", k)
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("no non-test caller: %s", o)
	}
	for key, why := range orphanAllow {
		if !excused[key] {
			t.Errorf("allowlist row %q (%s) excuses nothing: it is reached, or gone", key, why)
		}
	}
}
