package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, typechecked package of the module.
type Package struct {
	Path      string      // import path
	Name      string      // package clause name
	Files     []*ast.File // non-test files, typechecked
	TestFiles []*ast.File // _test.go files
	Types     *types.Package
	Info      *types.Info // Files only
	// TestInfo types TestFiles: the in-package ones checked together
	// with Files, the external _test package against the module. Only
	// test-only-export reads it, for the field reads tests make.
	TestInfo *types.Info

	loadErrs []Diagnostic
	allows   allowDirectives
}

// Module is the fully loaded module: every package under the root,
// typechecked against the standard library.
type Module struct {
	Root string // module root directory
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path

	// LoadErrors carries module-level problems (unreadable go.mod,
	// import cycles) as diagnostics under the pseudo-check "load".
	LoadErrors []Diagnostic

	stdlib  types.Importer
	local   map[string]*Package
	loading map[string]bool
	facts   *facts
	exports *exportUses
}

// LoadModule parses and typechecks every package under root (skipping
// testdata, hidden, and underscore directories). Type errors do not
// abort the load; they become diagnostics so checks can still run over
// whatever typechecked.
func LoadModule(root string) (*Module, error) {
	modfile := filepath.Join(root, "go.mod")
	data, err := os.ReadFile(modfile)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", modfile, err)
	}
	path := modulePath(string(data))
	if path == "" {
		return nil, fmt.Errorf("lint: no module clause in %s", modfile)
	}
	fset := token.NewFileSet()
	m := &Module{
		Root:    root,
		Path:    path,
		Fset:    fset,
		stdlib:  importer.ForCompiler(fset, "source", nil),
		local:   map[string]*Package{},
		loading: map[string]bool{},
	}
	var dirs []string
	if err := collectDirs(root, &dirs); err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		ip := path
		if rel != "." {
			ip = path + "/" + filepath.ToSlash(rel)
		}
		p, err := m.load(ip)
		if err != nil {
			return nil, err
		}
		// One directory, one import path: p is not in m.Pkgs yet.
		if p != nil {
			m.Pkgs = append(m.Pkgs, p)
		}
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	// External test packages may import any module package, so the
	// tests are typed once the whole module is loaded.
	for _, p := range m.Pkgs {
		m.typecheckTests(p)
	}
	return m, nil
}

// modulePath extracts the module path from go.mod content.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "module" {
			return fields[1]
		}
	}
	return ""
}

// collectDirs appends every directory under root that contains .go
// files, skipping testdata and hidden/underscore directories — the
// same exclusions the go tool applies.
func collectDirs(dir string, out *[]string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	hasGo := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				continue
			}
			if err := collectDirs(filepath.Join(dir, name), out); err != nil {
				return err
			}
			continue
		}
		if strings.HasSuffix(name, ".go") {
			hasGo = true
		}
	}
	if hasGo {
		*out = append(*out, dir)
	}
	return nil
}

// Import implements types.Importer: module-local paths load (and
// typecheck) from source under the module root; everything else is
// delegated to the stdlib source importer. Unknown paths error, which
// the tolerant typechecker records as a load diagnostic — that is how
// a third-party import surfaces even before stdlib-only-imports runs.
func (m *Module) Import(path string) (*types.Package, error) {
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		p, err := m.load(path)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("no Go files in %s", path)
		}
		return p.Types, nil
	}
	if !stdlibPath(path) {
		return nil, fmt.Errorf("non-stdlib import %q (module is stdlib-only)", path)
	}
	return m.stdlib.Import(path)
}

// stdlibPath reports whether path can only be a standard-library
// package: the first path element of every non-stdlib module contains
// a dot (a domain), stdlib packages never do.
func stdlibPath(path string) bool {
	first := path
	if i := strings.IndexByte(path, '/'); i >= 0 {
		first = path[:i]
	}
	return !strings.Contains(first, ".")
}

// load parses and typechecks one module-local package by import path,
// memoized. It returns nil for a directory without non-test Go files.
func (m *Module) load(ip string) (*Package, error) {
	if p, ok := m.local[ip]; ok {
		return p, nil
	}
	if m.loading[ip] {
		return nil, fmt.Errorf("import cycle through %s", ip)
	}
	m.loading[ip] = true
	defer delete(m.loading, ip)

	rel := strings.TrimPrefix(strings.TrimPrefix(ip, m.Path), "/")
	dir := filepath.Join(m.Root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", ip, err)
	}
	var files, testFiles []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(m.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", full, err)
		}
		if strings.HasSuffix(name, "_test.go") {
			testFiles = append(testFiles, f)
		} else {
			files = append(files, f)
		}
	}
	if len(files) == 0 && len(testFiles) == 0 {
		m.local[ip] = nil
		return nil, nil
	}
	p := &Package{Path: ip, Files: files, TestFiles: testFiles}
	if len(files) > 0 {
		p.Name = files[0].Name.Name
		m.typecheck(p)
	} else {
		p.Name = testFiles[0].Name.Name
		p.Types = types.NewPackage(ip, strings.TrimSuffix(p.Name, "_test"))
	}
	m.local[ip] = p
	return p, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// typecheck runs the tolerant typechecker over p's non-test files,
// recording every type error as a "load" diagnostic on the package.
func (m *Module) typecheck(p *Package) {
	p.Info = newInfo()
	conf := types.Config{
		Importer: m,
		Error: func(err error) {
			d := Diagnostic{Check: "load", Message: err.Error()}
			if terr, ok := err.(types.Error); ok {
				d.Pos = terr.Fset.Position(terr.Pos)
				d.Message = terr.Msg
			}
			p.loadErrs = append(p.loadErrs, d)
		},
	}
	tpkg, _ := conf.Check(p.Path, m.Fset, p.Files, p.Info)
	if tpkg == nil {
		tpkg = types.NewPackage(p.Path, p.Name)
	}
	p.Types = tpkg
}

// typecheckTests fills p.TestInfo. Type errors in test files are
// dropped: go vet reports them, and a read the checker misses through
// one can only add a test-only-export diagnostic, never hide one.
func (m *Module) typecheckTests(p *Package) {
	var in, ext []*ast.File
	for _, f := range p.TestFiles {
		if f.Name.Name == p.Name {
			in = append(in, f)
		} else {
			ext = append(ext, f)
		}
	}
	p.TestInfo = newInfo()
	conf := types.Config{Importer: m, Error: func(error) {}}
	if len(in) > 0 {
		_, _ = conf.Check(p.Path, m.Fset, append(append([]*ast.File(nil), p.Files...), in...), p.TestInfo)
	}
	if len(ext) > 0 {
		_, _ = conf.Check(p.Path+"_test", m.Fset, ext, p.TestInfo)
	}
}

// TypecheckSource typechecks an in-memory package against the module
// (so fixtures can import module packages) and returns it ready for
// RunPackage. files maps file name to source. Sabotage fixtures and
// the testdata corpus load through here; type errors become "load"
// diagnostics on the returned package rather than failing the call.
//
//simlint:allow test-only-export loads the sabotage fixtures and testdata corpus
func (m *Module) TypecheckSource(importPath string, files map[string]string) (*Package, error) {
	var names []string
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var parsed, tests []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.Fset, name, files[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, f)
		} else {
			parsed = append(parsed, f)
		}
	}
	if len(parsed) == 0 {
		return nil, fmt.Errorf("lint: package %s has no non-test files", importPath)
	}
	p := &Package{Path: importPath, Name: parsed[0].Name.Name, Files: parsed, TestFiles: tests}
	m.typecheck(p)
	m.typecheckTests(p)
	return p, nil
}
