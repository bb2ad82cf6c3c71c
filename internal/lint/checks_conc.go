package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The concurrency checks below target the places the repo allows
// goroutines on the simulation side. The main one is the replica
// worker pool in internal/sweep. Its safety argument is shared-nothing
// execution: each worker writes only its own result slot, and results
// merge serially in index order once the pool drains. A write from a
// `go func` body to state captured from outside that goroutine breaks
// that rule and turns a deterministic parallel run into a racy one, so
// it is flagged statically, before the race detector ever gets a
// chance to catch it probabilistically.

// shardScoped reports whether p is one of the packages held to the
// own-slot rule: internal/sweep's replica pool, and internal/serve's
// session-confined workers — a service goroutine may write only through
// its own session's lock or the service mutex, so captured-state writes
// from go funclits are flagged the same way. internal/ledger is scoped
// too: the hash chain admits exactly one appender, so a goroutine
// mutating captured ledger state bypasses the single-writer seam even
// when a mutex makes it race-free.
func shardScoped(m *Module, p *Package) bool {
	for _, s := range []string{"/internal/sweep", "/internal/serve", "/internal/ledger"} {
		full := m.Path + s
		if p.Path == full || strings.HasPrefix(p.Path, full+"/") {
			return true
		}
	}
	return false
}

// capturedWrite is one assignment inside a go-funclit whose target
// lives outside the goroutine.
type capturedWrite struct {
	pos    token.Pos
	target string // printable form of the written expression
	locked bool   // the goroutine body takes a sync lock
}

// goFuncWrites walks fn's body and reports every write to captured
// state inside each `go func() {...}` launched there. The one exempt
// shape is the own-slot write: indexing a captured slice or array with
// a goroutine-local coordinate (`out[i] = ...` where i is claimed
// inside the goroutine) writes memory no other worker touches — that is
// the sanctioned fan-out idiom in internal/sweep. Map writes and
// fixed-index writes share their target with every other worker and
// stay flagged.
func goFuncWrites(p *Package, body *ast.BlockStmt) []capturedWrite {
	var writes []capturedWrite
	ast.Inspect(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		locked := bodyLocks(p, lit)
		for _, w := range litCapturedWrites(p, lit) {
			w.locked = locked
			writes = append(writes, w)
		}
		return true
	})
	return writes
}

// bodyLocks reports whether the funclit body calls Lock/RLock from
// package sync — the signal that the author is mediating shared access
// with a mutex rather than giving each worker its own slot.
func bodyLocks(p *Package, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(p.Info, call.Fun)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		if fn.Name() == "Lock" || fn.Name() == "RLock" {
			found = true
		}
		return true
	})
	return found
}

// litCapturedWrites collects writes to captured targets inside lit,
// skipping nested goroutines (they are visited as their own GoStmt).
func litCapturedWrites(p *Package, lit *ast.FuncLit) []capturedWrite {
	var writes []capturedWrite
	record := func(lhs ast.Expr, define bool) {
		if define {
			return // := declares goroutine-locals
		}
		if w, captured := classifyWrite(p, lit, lhs); captured {
			writes = append(writes, w)
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			return false // its own goroutine, visited separately
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				record(lhs, st.Tok == token.DEFINE)
			}
		case *ast.IncDecStmt:
			record(st.X, false)
		case *ast.RangeStmt:
			if st.Tok == token.ASSIGN {
				record(st.Key, false)
				record(st.Value, false)
			}
		}
		return true
	})
	return writes
}

// classifyWrite decomposes one assignment target down to its base
// identifier and decides whether it writes captured state.
func classifyWrite(p *Package, lit *ast.FuncLit, lhs ast.Expr) (capturedWrite, bool) {
	var indexes []*ast.IndexExpr
	expr := lhs
walk:
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			indexes = append(indexes, e)
			expr = e.X
		case *ast.Ident:
			break walk
		default:
			return capturedWrite{}, false // computed base (call result etc.)
		}
	}
	base := expr.(*ast.Ident)
	if base.Name == "_" {
		return capturedWrite{}, false
	}
	obj := p.Info.ObjectOf(base)
	v, ok := obj.(*types.Var)
	if !ok || declaredInside(lit, v) {
		return capturedWrite{}, false // goroutine-local (or not a variable)
	}
	// Own-slot exemption: some step of the access chain indexes a
	// slice/array with a goroutine-local coordinate.
	for _, ix := range indexes {
		t := p.Info.TypeOf(ix.X)
		if t == nil {
			continue
		}
		u := t.Underlying()
		if ptr, isPtr := u.(*types.Pointer); isPtr {
			u = ptr.Elem().Underlying()
		}
		switch u.(type) {
		case *types.Slice, *types.Array:
			if indexIsLocal(p, lit, ix.Index) {
				return capturedWrite{}, false
			}
		}
	}
	return capturedWrite{pos: lhs.Pos(), target: types.ExprString(lhs)}, true
}

// declaredInside reports whether v's declaration lies lexically inside
// lit (including its parameter list).
func declaredInside(lit *ast.FuncLit, v *types.Var) bool {
	return v.Pos() >= lit.Pos() && v.Pos() < lit.End()
}

// indexIsLocal reports whether idx contains at least one
// goroutine-local variable (a per-worker coordinate) and no captured
// ones: `out[i]` with i claimed inside the goroutine is a private slot,
// `out[0]` or `out[j]` with shared j is not.
func indexIsLocal(p *Package, lit *ast.FuncLit, idx ast.Expr) bool {
	local, captured := false, false
	ast.Inspect(idx, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := p.Info.ObjectOf(id).(*types.Var); ok {
			if declaredInside(lit, v) {
				local = true
			} else {
				captured = true
			}
		}
		return true
	})
	return local && !captured
}

// checkShardIsolation enforces the own-slot rule inside the sweep,
// serve and ledger worker pools: a goroutine there may write only its
// own slot, and results are combined after the pool drains, in index
// order. Even a mutex-guarded write is flagged — a lock makes the write
// safe for the race detector but still combines results in a
// scheduler-dependent order, which is exactly what the index-ordered
// merge exists to prevent.
var checkShardIsolation = &Check{
	Name: "shard-isolation",
	Doc:  "goroutines in internal/sweep, internal/serve and internal/ledger write only their own slot; results merge in index order after the pool drains",
	run: func(m *Module, p *Package) []Diagnostic {
		if p.Info == nil || !shardScoped(m, p) {
			return nil
		}
		var diags []Diagnostic
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				for _, w := range goFuncWrites(p, fd.Body) {
					diags = append(diags, Diagnostic{
						Check: "shard-isolation",
						Pos:   m.Fset.Position(w.pos),
						Message: fmt.Sprintf(
							"goroutine writes %s, captured from outside its own slot; give each worker its own slot and merge in index order after the pool drains", w.target),
					})
				}
			}
		}
		return diags
	},
}

// checkUnsyncedSharedWrite covers the rest of the simulation tree: any
// other internal/ package that launches a goroutine writing captured
// state without taking a sync lock is a data race waiting for the race
// detector to get lucky. Unlike shard-isolation this check accepts
// mutex-mediated writes — outside the own-slot packages there is no
// merge order to protect, only memory safety.
var checkUnsyncedSharedWrite = &Check{
	Name: "unsynced-shared-write",
	Doc:  "goroutines in internal/ sim packages must not write captured state without sync mediation",
	run: func(m *Module, p *Package) []Diagnostic {
		if p.Info == nil || !simScoped(m, p) || shardScoped(m, p) {
			return nil
		}
		var diags []Diagnostic
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				for _, w := range goFuncWrites(p, fd.Body) {
					if w.locked {
						continue
					}
					diags = append(diags, Diagnostic{
						Check: "unsynced-shared-write",
						Pos:   m.Fset.Position(w.pos),
						Message: fmt.Sprintf(
							"goroutine writes captured %s without sync mediation; guard it with a mutex or give each worker its own slot", w.target),
					})
				}
			}
		}
		return diags
	},
}
