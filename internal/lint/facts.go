package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// sinkInfo describes one hazardous sink: why touching it freezes input
// order, and a printable name for hazard-path diagnostics.
type sinkInfo struct {
	reason string // e.g. "schedules engine events"
	sink   string // e.g. "sim.Engine.At"
}

// facts is the module's whole-program hazard database: for every
// function declaration analyzed so far, whether it directly touches a
// determinism sink (schedules engine events, writes report/trace
// output), and every module-local function it calls *or references* —
// a method value or func value handed off as a callback counts as a
// call edge, because whoever receives it may invoke it. ordered-map-range
// runs a fixpoint reachability query over this graph, so a hazard any
// number of call hops from the sink is still found, with the full path.
type facts struct {
	modpath string
	direct  map[*types.Func]sinkInfo       // func -> the sink it touches directly
	calls   map[*types.Func][]*types.Func  // module-local callees/references, AST order
	memo    map[*types.Func]*hazardSummary // fixpoint cache, nil entry = proven safe
}

// hazardSummary is the memoized result of a reachability query.
type hazardSummary struct {
	reason string
	path   []*types.Func // fn ... direct-sink-toucher, inclusive
	sink   string
}

// moduleFacts lazily builds facts over every module package.
func (m *Module) moduleFacts() *facts {
	if m.facts == nil {
		m.facts = newFacts(m.Path)
		for _, p := range m.Pkgs {
			m.facts.addPackage(p)
		}
	}
	return m.facts
}

func newFacts(modpath string) *facts {
	return &facts{
		modpath: modpath,
		direct:  map[*types.Func]sinkInfo{},
		calls:   map[*types.Func][]*types.Func{},
		memo:    map[*types.Func]*hazardSummary{},
	}
}

// factsWith returns module facts extended with p (used for fixture
// packages typechecked via TypecheckSource, which are not in m.Pkgs).
func (m *Module) factsWith(p *Package) *facts {
	base := m.moduleFacts()
	if m.inModule(p) {
		return base
	}
	ext := newFacts(base.modpath)
	for k, v := range base.direct {
		ext.direct[k] = v
	}
	for k, v := range base.calls {
		ext.calls[k] = v
	}
	ext.addPackage(p)
	return ext
}

func (f *facts) addPackage(p *Package) {
	if p.Info == nil {
		return
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := p.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			// Everything lexically inside the declaration counts as
			// the declaration, closures included: a callback built
			// here fires on behalf of this function. Walking every
			// identifier (rather than only call expressions) is what
			// makes handed-off callbacks visible: `pool.Each(t.emit)`
			// records an edge to emit exactly as `t.emit()` would.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				callee, ok := p.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				if si, hazardous := markerCall(f.modpath, callee); hazardous {
					if _, seen := f.direct[obj]; !seen {
						f.direct[obj] = si
					}
					return true
				}
				if pkg := callee.Pkg(); pkg != nil && modulePathMember(f.modpath, pkg.Path()) {
					f.calls[obj] = append(f.calls[obj], callee)
				}
				return true
			})
		}
	}
}

// hazard reports whether fn touches a determinism sink anywhere in its
// transitive call graph. The returned reason names the sink class; the
// path spells out the whole chain for the diagnostic, e.g.
//
//	flush → emit → record → sim.Engine.At
//
// Resolution is a breadth-first search over the call/reference graph,
// so the reported path is a shortest one, and edge order (AST order,
// packages sorted by import path) makes it deterministic.
func (f *facts) hazard(fn *types.Func) (reason, path string, ok bool) {
	sum := f.reach(fn)
	if sum == nil {
		return "", "", false
	}
	var b strings.Builder
	for i, hop := range sum.path {
		if i > 0 {
			b.WriteString(" → ")
		}
		b.WriteString(hop.Name())
	}
	b.WriteString(" → ")
	b.WriteString(sum.sink)
	return sum.reason, b.String(), true
}

// reach runs the memoized BFS behind hazard.
func (f *facts) reach(fn *types.Func) *hazardSummary {
	if fn == nil {
		return nil
	}
	if sum, seen := f.memo[fn]; seen {
		return sum
	}
	type node struct {
		fn   *types.Func
		prev int // index of predecessor in visit order, -1 for the root
	}
	visit := []node{{fn: fn, prev: -1}}
	seen := map[*types.Func]bool{fn: true}
	found := -1
	for i := 0; i < len(visit) && found < 0; i++ {
		cur := visit[i]
		if _, direct := f.direct[cur.fn]; direct {
			found = i
			break
		}
		for _, callee := range f.calls[cur.fn] {
			if seen[callee] {
				continue
			}
			seen[callee] = true
			visit = append(visit, node{fn: callee, prev: i})
		}
	}
	var sum *hazardSummary
	if found >= 0 {
		si := f.direct[visit[found].fn]
		var rev []*types.Func
		for i := found; i >= 0; i = visit[i].prev {
			rev = append(rev, visit[i].fn)
		}
		path := make([]*types.Func, len(rev))
		for i, hop := range rev {
			path[len(rev)-1-i] = hop
		}
		sum = &hazardSummary{reason: si.reason, path: path, sink: si.sink}
	}
	f.memo[fn] = sum
	return sum
}

// calleeOf statically resolves the function object an expression
// denotes: the callee of a call, or a method value / func value used as
// a callback argument. It returns nil for expressions that are not
// statically a single function (interface method values through a nil
// selection, computed function values).
func calleeOf(info *types.Info, expr ast.Expr) *types.Func {
	switch fun := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// markerCall classifies callee as event-scheduling or report/trace
// writing. These are the sinks whose input order the determinism
// contract freezes: the sim.Engine scheduling API, the trace package,
// and the stream/report encoders library code emits artifacts through.
func markerCall(modpath string, callee *types.Func) (sinkInfo, bool) {
	pkg := callee.Pkg()
	if pkg == nil {
		return sinkInfo{}, false
	}
	recv := recvTypeName(callee)
	mark := func(reason string) (sinkInfo, bool) {
		name := pkg.Name() + "."
		if recv != "" {
			name += recv + "."
		}
		return sinkInfo{reason: reason, sink: name + callee.Name()}, true
	}
	switch pkg.Path() {
	case modpath + "/internal/sim":
		if recv == "Engine" {
			// schedule is the unexported entry point At and
			// sim.Server's completions share; marking it keeps every
			// path into the heap a sink, not only the public API.
			switch callee.Name() {
			case "At", "After", "Reschedule", "schedule":
				return mark("schedules engine events")
			}
		}
	case modpath + "/internal/trace":
		return mark("writes trace output")
	case modpath + "/internal/spantrace":
		return mark("records span-trace output")
	case modpath + "/internal/sweep":
		return mark("records sweep results")
	case modpath + "/internal/serve":
		return mark("feeds the session service API")
	case modpath + "/internal/ledger":
		return mark("appends operations-ledger entries")
	case "fmt":
		switch callee.Name() {
		case "Fprint", "Fprintf", "Fprintln":
			return mark("writes report output")
		}
	case "encoding/json":
		if recv == "Encoder" && callee.Name() == "Encode" {
			return mark("writes report output")
		}
		switch callee.Name() {
		case "Marshal", "MarshalIndent":
			return mark("writes report output")
		}
	case "encoding/csv":
		if recv == "Writer" {
			switch callee.Name() {
			case "Write", "WriteAll":
				return mark("writes report output")
			}
		}
	}
	return sinkInfo{}, false
}

// recvTypeName returns the name of the receiver's named type (through
// one pointer), or "" for plain functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// modulePathMember reports whether path is the module or inside it.
func modulePathMember(modpath, path string) bool {
	return path == modpath || len(path) > len(modpath) && path[:len(modpath)] == modpath && path[len(modpath)] == '/'
}
