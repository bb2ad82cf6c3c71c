package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// checkTestOnlyExport keeps deleted code and state deleted. In
// internal/ it flags a function or method, exported or not, that no
// non-test file of the loaded tree (studies, CLIs, examples, services,
// bench/) refers to, skipping main, init and methods whose receiver
// implements an interface the module declares or imports that has them
// (String, Error, sort.Interface and the like are called through the
// interface). It also flags a struct field that no file reads, test
// files included. A selector reads a field unless it is an assignment
// target (x.f += 1 and x.f++ are writes); a struct tag (encoding/json)
// or the struct's use as a map key or an == operand reads every field.
// Oracles and fault injectors that tests use to check live code stay
// behind a //simlint:allow test-only-export <reason>.
var checkTestOnlyExport = &Check{
	Name: "test-only-export",
	Doc:  "internal/ functions must have a non-test caller, and struct fields a reader",
	run: func(m *Module, p *Package) []Diagnostic {
		if p.Info == nil || !strings.HasPrefix(p.Path, m.Path+"/internal/") {
			return nil
		}
		ex := m.moduleExports()
		if !m.inModule(p) {
			ex = m.exportsWith(p)
		}
		var diags []Diagnostic
		report := func(pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Check:   "test-only-export",
				Pos:     m.Fset.Position(pos),
				Message: fmt.Sprintf(format, args...),
			})
		}
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
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
				report(fd.Name.Pos(), "%s has no non-test caller; delete it, or keep it as a test oracle with a reason", name)
			}
			named := map[ast.Expr]string{}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					named[n.Type] = n.Name.Name
				case *ast.StructType:
					owner := named[n]
					if owner == "" {
						owner = "struct"
					}
					for _, f := range n.Fields.List {
						for _, id := range f.Names {
							if f.Tag == nil && id.Name != "_" && !ex.read[id.Pos()] {
								report(id.Pos(), "field %s.%s is never read, not even by a test; delete it, or keep it with a reason", owner, id.Name)
							}
						}
					}
				}
				return true
			})
		}
		return diags
	},
}

// exportUses is the data test-only-export reads: every function object
// a non-test file refers to, every named interface the loaded packages
// declare or import, and the declaration position of every struct
// field some file reads. Positions, not objects, identify fields
// because an in-package test's typecheck declares its own copy of each.
type exportUses struct {
	used   map[*types.Func]bool
	ifaces []*types.Interface
	seen   map[string]bool // packages whose interfaces are in ifaces
	read   map[token.Pos]bool
}

// moduleExports lazily builds exportUses over every module package.
func (m *Module) moduleExports() *exportUses {
	if m.exports == nil {
		ex := &exportUses{used: map[*types.Func]bool{}, seen: map[string]bool{}, read: map[token.Pos]bool{}}
		ex.ifaces = append(ex.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
		for _, p := range m.Pkgs {
			ex.addPackage(p)
		}
		m.exports = ex
	}
	return m.exports
}

// exportsWith is moduleExports plus extra, a fixture package from
// TypecheckSource, which is not in m.Pkgs. Module code cannot refer to
// a fixture's objects, so the fixture adds only its own uses, reads and
// interfaces, to a copy that leaves the module's set as it was.
func (m *Module) exportsWith(extra *Package) *exportUses {
	mod := m.moduleExports()
	ex := &exportUses{
		used:   maps.Clone(mod.used),
		ifaces: slices.Clone(mod.ifaces),
		seen:   maps.Clone(mod.seen),
		read:   maps.Clone(mod.read),
	}
	ex.addPackage(extra)
	return ex
}

func (ex *exportUses) addPackage(p *Package) {
	ex.addUses(p)
	ex.addReads(p.Info, p.Files)
	ex.addReads(p.TestInfo, p.TestFiles)
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

// addReads records the fields files read, typed by info.
func (ex *exportUses) addReads(info *types.Info, files []*ast.File) {
	if info == nil {
		return
	}
	for _, f := range files {
		written := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					written[ast.Unparen(lhs)] = true
				}
			case *ast.IncDecStmt:
				written[ast.Unparen(n.X)] = true
			case *ast.SelectorExpr:
				if sel := info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !written[n] {
					ex.read[sel.Obj().Pos()] = true
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					ex.readCompared(info.TypeOf(n.X))
					ex.readCompared(info.TypeOf(n.Y))
				}
			}
			return true
		})
	}
	for _, tv := range info.Types {
		if mt, ok := tv.Type.Underlying().(*types.Map); ok {
			ex.readCompared(mt.Key())
		}
	}
}

// readCompared marks the fields of t, when t is a struct that is a map key
// or an == operand. A struct nested in t is not marked: its fields are
// compared, but none is looked at on its own.
func (ex *exportUses) readCompared(t types.Type) {
	if t == nil {
		return // an operand with a type error
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			ex.read[st.Field(i).Pos()] = true
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
		if obj, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); obj != nil && types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// inModule reports whether p is one of the loaded module packages
// rather than a fixture from TypecheckSource.
func (m *Module) inModule(p *Package) bool { return m.local[p.Path] == p }
