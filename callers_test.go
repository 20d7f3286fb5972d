package repro_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledAllowed names the package-level declarations under internal/
// that no program calls and that stay anyway, each with its reason. A
// name is package.Func or package.Type.Method.
var uncalledAllowed = map[string]string{
	"fft.Inverse":                "reference check: tests round-trip the forward transform through it",
	"stencil.Serial":             "reference check: tests compare the distributed Jacobi sweep against it",
	"sparse.CG":                  "reference check: tests compare DistCG against the serial solver",
	"sparse.CSR.Validate":        "reference check: tests validate the matrices the generators build",
	"linalg.FromSlice":           "reference check: tests build known matrices for the kernels",
	"linalg.Matrix.Clone":        "reference check: tests keep the input of an in-place factorisation",
	"linalg.Matrix.Equalish":     "reference check: tests compare kernel output against a reference",
	"linalg.Matrix.FillIdentity": "reference check: tests multiply by the identity",
	"linalg.Matrix.NormFro":      "reference check: tests measure the LU residual",
	"obs.Histogram.Count":        "test read-out: metrics tests read a histogram's sample count",
	"par.Team.Pinned":            "test read-out: affinity tests read whether a team pinned its workers",
	"perfmodel.Hockney.Predict":  "test read-out: fit tests evaluate the fitted model",
	"report.Table.NRows":         "test read-out: report tests count a table's rows",
	"report.Recorder.Text":       "test read-out: core, report and serve tests compare a run's captured text",
	"serve.Server.Registry":      "test read-out: serve and shard tests scrape a server's metrics",
	"stats.LinearFit.Eval":       "test read-out: fit tests evaluate the fitted line",
}

// modulePkg is one directory of the module (bench/ included) as the
// build context sees it: build constraints decide which files count.
type modulePkg struct {
	path        string
	files       []*ast.File // non-test files
	checked     *types.Package
	info        *types.Info
	internalPkg bool
}

// TestEveryDeclHasACaller is the guard against dead surface: every
// package-level declaration under internal/ (functions, types,
// variables, constants and methods) must be reachable from a program
// or from the root package's tests. Non-test code in cmd/ and bench/,
// the root package's tests, init functions and the allowlist above are
// roots; no other package's tests are, so one internal package's tests
// (its Examples included) cannot keep another's surface alive. A use
// from internal code counts only when the using declaration is itself
// reachable, so a helper whose only caller is dead is dead too. Uses
// are resolved by the type checker, not by name, so mem.Ladder does
// not keep mem.Model.Ladder alive. A method is exempt when its
// receiver type is reachable and implements an interface, from the
// module or a standard package it imports, that declares the method.
func TestEveryDeclHasACaller(t *testing.T) {
	if raceBuild() {
		t.Skip("type-checking the module from source is too slow under -race")
	}
	fset := token.NewFileSet()
	pkgs, rootTests := loadModule(t, fset)

	std := importer.ForCompiler(fset, "source", nil)
	imp := &moduleImporter{std: std, pkgs: pkgs, fset: fset}
	for _, p := range sortedPkgs(pkgs) {
		imp.check(p)
	}

	g := newCallGraph(fset)
	ifaces := moduleInterfaces(pkgs)
	for _, p := range sortedPkgs(pkgs) {
		g.addPackage(p, ifaces)
	}
	testInfo := newInfo()
	imp.config().Check("repro_test", fset, rootTests, testInfo)
	for _, f := range rootTests {
		for k := range uses(testInfo, f) {
			g.roots[k] = true
		}
	}

	for name := range uncalledAllowed {
		if _, ok := g.pos[internalPrefix+name]; !ok {
			t.Errorf("allowlist names %s, which is not a package-level declaration under internal/", name)
		}
	}
	roots := make(map[string]bool, len(g.roots)+len(uncalledAllowed))
	for k := range g.roots {
		roots[k] = true
	}
	for name := range uncalledAllowed {
		roots[internalPrefix+name] = true
	}
	live := g.reach(roots)
	for name := range uncalledAllowed {
		k := internalPrefix + name
		if g.roots[k] || g.calledFromLive(k, live) {
			t.Errorf("%s has a caller: drop it from the allowlist", name)
		}
	}

	var dead []string
	for k, pos := range g.pos {
		if live[k] {
			continue
		}
		if recv := g.recvOf[k]; recv != "" && !live[recv] {
			continue // reported with its type
		}
		dead = append(dead, pos+": "+strings.TrimPrefix(k, internalPrefix))
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no program calls %s", d)
	}
	if len(dead) > 0 {
		t.Logf("%d declarations have no caller: delete them, or allowlist one with its reason", len(dead))
	}
}

const internalPrefix = "repro/internal/"

// loadModule parses the non-test files of every package directory of
// the module, and the root package's test files.
func loadModule(t *testing.T, fset *token.FileSet) (pkgs map[string]*modulePkg, rootTests []*ast.File) {
	t.Helper()
	pkgs = map[string]*modulePkg{}
	err := filepath.WalkDir(".", func(dir string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if dir != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		path := "repro"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		p := &modulePkg{path: path, internalPkg: strings.HasPrefix(path, internalPrefix)}
		parse := func(names []string) []*ast.File {
			var files []*ast.File
			for _, n := range names {
				f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			return files
		}
		p.files = parse(bp.GoFiles)
		if dir == "." {
			rootTests = parse(bp.XTestGoFiles)
		}
		pkgs[path] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 || pkgs[internalPrefix+"mp"] == nil || len(rootTests) == 0 {
		t.Fatalf("found %d packages, %d root test files and no internal/mp — is the test running in the module root?", len(pkgs), len(rootTests))
	}
	return pkgs, rootTests
}

func sortedPkgs(pkgs map[string]*modulePkg) []*modulePkg {
	out := make([]*modulePkg, 0, len(pkgs))
	for _, p := range pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// moduleImporter type-checks the module's own packages from the parsed
// files and hands every other import to the standard source importer.
type moduleImporter struct {
	std  types.Importer
	pkgs map[string]*modulePkg
	fset *token.FileSet
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.pkgs[path]; p != nil {
		return m.check(p), nil
	}
	return m.std.Import(path)
}

func (m *moduleImporter) config() *types.Config {
	// A tree that builds has no type errors; should the source
	// importer report one anyway, checking carries on and every use
	// the checker resolved is still recorded.
	return &types.Config{Importer: m, Error: func(error) {}}
}

func newInfo() *types.Info {
	return &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
}

// check type-checks p's non-test files once.
func (m *moduleImporter) check(p *modulePkg) *types.Package {
	if p.checked == nil && len(p.files) > 0 {
		p.info = newInfo()
		p.checked, _ = m.config().Check(p.path, m.fset, p.files, p.info)
	}
	return p.checked
}

// callGraph links each declaration under internal/ to the declarations
// its body, type or initializer uses. Keys are import path, then
// receiver type for a method, then name.
type callGraph struct {
	fset   *token.FileSet
	pos    map[string]string          // every declaration under internal/ → file:line
	recvOf map[string]string          // method → its receiver type
	edges  map[string]map[string]bool // declaration → what it uses
	roots  map[string]bool            // used by a program or by the root package's tests
}

func newCallGraph(fset *token.FileSet) *callGraph {
	return &callGraph{fset: fset, pos: map[string]string{}, recvOf: map[string]string{}, edges: map[string]map[string]bool{}, roots: map[string]bool{}}
}

// declKey names a package-level object or a method of a package-level
// type, or returns "" for anything else.
func declKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok {
				return "" // an interface method
			}
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + o.Name()
		}
		obj = o
	case *types.Var:
		if o.IsField() {
			return ""
		}
	case *types.PkgName, *types.Label, *types.Builtin, *types.Nil:
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// uses returns the declarations the identifiers under n resolve to.
func uses(info *types.Info, n ast.Node) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if k := declKey(info.Uses[id]); strings.HasPrefix(k, internalPrefix) {
				out[k] = true
			}
		}
		return true
	})
	return out
}

// addPackage records p's declarations and edges (internal packages) or
// its uses as roots (everything else).
func (g *callGraph) addPackage(p *modulePkg, ifaces []*types.Interface) {
	if p.checked == nil {
		return
	}
	if !p.internalPkg {
		for _, f := range p.files {
			for k := range uses(p.info, f) {
				g.roots[k] = true
			}
		}
		return
	}
	declare := func(id *ast.Ident, node ast.Node) string {
		obj := p.info.Defs[id]
		k := declKey(obj)
		if k == "" || id.Name == "_" {
			for u := range uses(p.info, node) {
				g.roots[u] = true // a blank declaration runs at init
			}
			return ""
		}
		if g.pos[k] == "" {
			pos := g.fset.Position(obj.Pos())
			g.pos[k] = filepath.ToSlash(pos.Filename) + ":" + strconv.Itoa(pos.Line)
		}
		if g.edges[k] == nil {
			g.edges[k] = map[string]bool{}
		}
		for u := range uses(p.info, node) {
			if u != k {
				g.edges[k][u] = true
			}
		}
		return k
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					for u := range uses(p.info, d) {
						g.roots[u] = true
					}
					continue
				}
				k := declare(d.Name, d)
				if d.Recv == nil || k == "" {
					continue
				}
				fn := p.info.Defs[d.Name].(*types.Func)
				recv := strings.TrimSuffix(k, "."+d.Name.Name)
				g.recvOf[k] = recv
				if implementsWith(fn, ifaces) {
					// Called through an interface: live whenever its type is.
					if g.edges[recv] == nil {
						g.edges[recv] = map[string]bool{}
					}
					g.edges[recv][k] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(s.Name, s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declare(n, s)
						}
					}
				}
			}
		}
	}
}

// implementsWith reports whether fn's receiver type implements one of
// ifaces that declares a method of fn's name.
func implementsWith(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	base := recv
	if ptr, ok := base.(*types.Pointer); ok {
		base = ptr.Elem()
	}
	if named, ok := base.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(base)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(base, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// moduleInterfaces returns the non-empty interfaces declared in the
// module and in the standard packages it imports, plus error.
func moduleInterfaces(pkgs map[string]*modulePkg) []*types.Interface {
	seen := map[*types.Package]bool{}
	var out []*types.Interface
	add := func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range sortedPkgs(pkgs) {
		if p.checked == nil {
			continue
		}
		add(p.checked)
		for _, dep := range p.checked.Imports() {
			add(dep)
		}
	}
	return out
}

// reach returns every declaration reachable from roots.
func (g *callGraph) reach(roots map[string]bool) map[string]bool {
	live := map[string]bool{}
	var stack []string
	for k := range roots {
		stack = append(stack, k)
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if live[k] {
			continue
		}
		live[k] = true
		for u := range g.edges[k] {
			stack = append(stack, u)
		}
	}
	return live
}

// calledFromLive reports whether a live declaration other than k uses k.
func (g *callGraph) calledFromLive(k string, live map[string]bool) bool {
	for from, to := range g.edges {
		if from != k && live[from] && to[k] {
			return true
		}
	}
	return false
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
