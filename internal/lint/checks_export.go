package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// checkTestOnlyExport keeps deleted code deleted: an exported function
// or method in internal/ that no non-test file of the loaded tree
// (studies, CLIs, examples, services, bench/) refers to is a mechanism
// only its own tests run, so it is flagged. A method counts as used
// when its receiver implements an interface the module declares or
// imports that has the method (String, Error, ServeHTTP, sort.Interface
// and the like are called through the interface, never by name).
// Oracles and fault injectors that tests use to check live code stay
// behind a //simlint:allow test-only-export <reason>.
var checkTestOnlyExport = &Check{
	Name: "test-only-export",
	Doc:  "exported internal/ functions and methods must have a non-test caller",
	run: func(m *Module, p *Package) []Diagnostic {
		if p.Info == nil || !strings.HasPrefix(p.Path, m.Path+"/internal/") {
			return nil
		}
		ex := m.moduleExports()
		if !m.inModule(p) {
			ex = m.exportsWith(p)
		}
		var diags []Diagnostic
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok || ex.used[fn] || ex.viaInterface(fn) {
					continue
				}
				name := fn.Name()
				if recv := recvTypeName(fn); recv != "" {
					name = recv + "." + name
				}
				diags = append(diags, Diagnostic{
					Check: "test-only-export",
					Pos:   m.Fset.Position(fd.Name.Pos()),
					Message: fmt.Sprintf(
						"exported %s has no non-test caller; delete it, or keep it as a test oracle with a reason", name),
				})
			}
		}
		return diags
	},
}

// exportUses is the data test-only-export reads: every function object
// a non-test file refers to, and every named interface the loaded
// packages declare or import.
type exportUses struct {
	used   map[*types.Func]bool
	ifaces []*types.Interface
	seen   map[string]bool // packages whose interfaces are in ifaces
}

// moduleExports lazily builds exportUses over every module package.
func (m *Module) moduleExports() *exportUses {
	if m.exports == nil {
		m.exports = m.exportsWith(nil)
	}
	return m.exports
}

// exportsWith builds exportUses over every module package plus extra
// (a fixture package from TypecheckSource, which is not in m.Pkgs).
func (m *Module) exportsWith(extra *Package) *exportUses {
	ex := &exportUses{used: map[*types.Func]bool{}, seen: map[string]bool{}}
	ex.ifaces = append(ex.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range m.Pkgs {
		ex.addPackage(p)
	}
	if extra != nil {
		ex.addPackage(extra)
	}
	return ex
}

func (ex *exportUses) addPackage(p *Package) {
	ex.addUses(p)
	if p.Types == nil {
		return
	}
	ex.addInterfaces(p.Types)
	for _, imp := range p.Types.Imports() {
		ex.addInterfaces(imp)
	}
}

// addInterfaces records the non-generic named interfaces declared at
// tp's package level.
func (ex *exportUses) addInterfaces(tp *types.Package) {
	if ex.seen[tp.Path()] {
		return
	}
	ex.seen[tp.Path()] = true
	scope := tp.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			ex.ifaces = append(ex.ifaces, it)
		}
	}
}

// addUses records every function p's non-test files refer to, except a
// function's references to itself: recursion is not a caller.
func (ex *exportUses) addUses(p *Package) {
	if p.Info == nil {
		return
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = p.Info.Defs[fd.Name]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := p.Info.Uses[id].(*types.Func); ok && fn != self {
					ex.used[fn.Origin()] = true
				}
				return true
			})
		}
	}
}

// viaInterface reports whether method fn's receiver implements one of
// the interfaces that has fn's name, so calls can reach it through
// dynamic dispatch.
func (ex *exportUses) viaInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return false // Implements is unspecified for uninstantiated generic types
	}
	for _, it := range ex.ifaces {
		// The pointer's method set includes the value receiver's.
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); obj != nil && types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// inModule reports whether p is one of the loaded module packages
// rather than a fixture from TypecheckSource.
func (m *Module) inModule(p *Package) bool {
	for _, q := range m.Pkgs {
		if q == p {
			return true
		}
	}
	return false
}
