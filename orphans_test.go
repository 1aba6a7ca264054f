package cham

// "Nothing beside the hot path" as a check: every function and method a
// non-test file of the arithmetic and kernel packages, the noise
// estimator, the card runtime or the serving half declares is used by
// some non-test file of
// the module, or named by the benchmark (its own module, which pins part
// of this surface) or by another package's tests (the API those tests are
// written against), or is listed below with the part of the paper it
// reproduces. What only its own package's tests reach fails the check.
// Type-checking the module from source takes a few seconds, so the test
// is skipped under -short and run by `make orphans` (tier 2).

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
	"sort"
	"strings"
	"testing"
)

// orphanScope lists the packages whose declarations must all be reached:
// the arithmetic and kernel packages, and the serving half above them.
var orphanScope = []string{
	"mod", "ntt", "ring", "rlwe", "bfv", "lwe", "core", "codec", "noise", "runtime",
	"apps/beaver", "wire", "server", "client", "cluster", "obs", "obs/trace",
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

	// One walk over the tree: every directory with non-test Go files is a
	// package to type-check (the benchmark is a module of its own), and the
	// files this test does not type-check count by the names they select —
	// the benchmark's like production code, another package's tests only
	// after the allowlist has had its say (so a paper artefact keeps its
	// row however many tests run it). A package's own tests never count.
	benchNames := map[string]bool{}
	testNames := map[string]map[string]bool{} // directory → selector names
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		names := benchNames
		switch {
		case d.IsDir():
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if bp, err := build.ImportDir(p, 0); p == "benchmark" || err != nil || len(bp.GoFiles) == 0 {
				return nil
			}
			_, err = imp.Import(strings.TrimSuffix("cham/"+filepath.ToSlash(p), "/."))
			return err
		case dir == "benchmark" && strings.HasSuffix(p, ".go"):
		case strings.HasSuffix(p, "_test.go"):
			if testNames[dir] == nil {
				testNames[dir] = map[string]bool{}
			}
			names = testNames[dir]
		default:
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if s, ok := n.(*ast.SelectorExpr); ok {
				names[s.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	namedByOtherTests := func(pkgDir, name string) bool {
		for dir, names := range testNames {
			if dir != pkgDir && names[name] {
				return true
			}
		}
		return false
	}

	inScope := map[string]bool{}
	for _, s := range orphanScope {
		inScope["cham/internal/"+s] = true
	}

	// Uses: an identifier resolving to the function anywhere outside its
	// own declaration; interface method sets a production type satisfies.
	used := map[*types.Func]bool{}
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
	// error, and the Unwrap that errors.Is and errors.As call through.
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil,
		nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	ifaces = append(ifaces, errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	for _, c := range imp.pkgs {
		collectIfaces(c.pkg)
		for _, f := range c.files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = c.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := c.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
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

	var orphans []string
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
				pkgDir := filepath.ToSlash(filepath.Dir(pos.Filename))
				if used[fn] || benchNames[fn.Name()] || implementsSome(fn) {
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
				if namedByOtherTests(pkgDir, fn.Name()) {
					continue
				}
				orphans = append(orphans, key+"  ("+pos.String()+")")
			}
		}
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
