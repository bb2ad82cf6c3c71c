// Package lint implements simlint, the repository's determinism and
// hygiene analyzer suite. It loads every package in the module with
// nothing but the standard library (go/parser, go/types, go/importer)
// and enforces the invariants behind the reproduction contract in
// DESIGN.md: simulated time only, seeded randomness only, no map
// iteration feeding event scheduling or report output (enforced
// transitively over a whole-program call graph that follows callbacks
// handed off as function/method values, with diagnostics spelling the
// full hazard path), no panics in library code, stdlib-only imports,
// hermetic (env-free) simulation packages, shard-isolation for the
// parallel worker pools, no unsynced captured writes in goroutines,
// and no dropped module-local errors.
//
// The escape-hatch directives themselves are managed debt: Debt
// inventories every //simlint:allow site, verifies it still suppresses
// something and carries a reason, and GateDebt holds the totals equal
// to a committed baseline (.simlint-baseline.json, enforced by verify.sh
// and CI via simlint -debt).
//
// Each invariant is a named Check producing file:line:col diagnostics.
// A site that is provably order-insensitive or intentionally excepted
// is silenced with an escape-hatch comment on the offending line or
// the line directly above it:
//
//	//simlint:allow <check>[,<check>...] <reason>
//
// The reason is free text and is strongly encouraged; the directive
// without at least one check name is inert.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding from one check.
type Diagnostic struct {
	Check   string         `json:"check"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
}

// String formats the diagnostic the way compilers do, so editors and CI
// annotators can parse it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// A Check is one named invariant. Checks are pure: they read the loaded
// module and report diagnostics, never mutating anything.
type Check struct {
	Name string // stable identifier used in diagnostics and allow comments
	Doc  string // one-line description
	run  func(m *Module, p *Package) []Diagnostic
}

// Checks returns the full suite in stable order.
func Checks() []*Check {
	return []*Check{
		checkNoWallclock,
		checkNoGlobalRand,
		checkOrderedMapRange,
		checkNoLibraryPanic,
		checkStdlibOnlyImports,
		checkEnvFreeSim,
		checkShardIsolation,
		checkUnsyncedSharedWrite,
		checkDroppedError,
		checkTestOnlyExport,
	}
}

// LookupCheck returns the named check, or nil.
func LookupCheck(name string) *Check {
	for _, c := range Checks() {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Run executes the given checks over every package in the module,
// filters allow-directives, and returns the surviving diagnostics in
// (file, line, col, check) order. Load and typecheck problems surface
// as diagnostics under the pseudo-check "load" so a broken tree cannot
// silently pass.
func (m *Module) Run(checks []*Check) []Diagnostic {
	diags := append([]Diagnostic(nil), m.LoadErrors...)
	for _, p := range m.Pkgs {
		diags = append(diags, m.runPackage(p, checks)...)
	}
	return finish(diags)
}

// RunPackage executes the checks over a single package (typically one
// produced by TypecheckSource for sabotage fixtures), including that
// package's typecheck diagnostics.
//
//simlint:allow test-only-export runs the sabotage fixtures and testdata corpus
func (m *Module) RunPackage(p *Package, checks []*Check) []Diagnostic {
	return finish(m.runPackage(p, checks))
}

func (m *Module) runPackage(p *Package, checks []*Check) []Diagnostic {
	return p.filterAllowed(m.Fset, m.runPackageUnfiltered(p, checks))
}

// runPackageUnfiltered is runPackage without the allow filter: the
// debt inventory needs to see what each directive would have silenced.
func (m *Module) runPackageUnfiltered(p *Package, checks []*Check) []Diagnostic {
	diags := append([]Diagnostic(nil), p.loadErrs...)
	for _, c := range checks {
		diags = append(diags, c.run(m, p)...)
	}
	return diags
}

func finish(diags []Diagnostic) []Diagnostic {
	for i := range diags {
		diags[i].File = diags[i].Pos.Filename
		diags[i].Line = diags[i].Pos.Line
		diags[i].Col = diags[i].Pos.Column
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return diags
}

// allowDirectives maps file name -> directive line -> allowed check
// names. A directive silences matching diagnostics on its own line
// (trailing comment) and on the line directly below it (standalone
// comment above the offending statement).
type allowDirectives map[string]map[int]map[string]bool

const allowPrefix = "//simlint:allow"

// parseAllow extracts check names from one comment's raw text, or nil.
func parseAllow(text string) []string {
	names, _, _ := parseAllowDirective(text)
	return names
}

// parseAllowDirective splits one comment's raw text into the directive's
// check names and free-text reason. ok is false for non-directives and
// for the inert no-name form.
func parseAllowDirective(text string) (names []string, reason string, ok bool) {
	if !strings.HasPrefix(text, allowPrefix) {
		return nil, "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, "", false
	}
	first := fields[0]
	rem := strings.TrimPrefix(rest, first)
	for _, n := range strings.Split(first, ",") {
		if n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, "", false
	}
	return names, strings.TrimSpace(rem), true
}

func collectAllows(fset *token.FileSet, files []*ast.File) allowDirectives {
	dirs := allowDirectives{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := parseAllow(c.Text)
				if len(names) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := dirs[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					dirs[pos.Filename] = byLine
				}
				set := byLine[pos.Line]
				if set == nil {
					set = map[string]bool{}
					byLine[pos.Line] = set
				}
				for _, n := range names {
					set[n] = true
				}
			}
		}
	}
	return dirs
}

func (p *Package) filterAllowed(fset *token.FileSet, diags []Diagnostic) []Diagnostic {
	if p.allows == nil {
		all := append(append([]*ast.File(nil), p.Files...), p.TestFiles...)
		p.allows = collectAllows(fset, all)
	}
	kept := diags[:0]
	for _, d := range diags {
		byLine := p.allows[d.Pos.Filename]
		if byLine != nil && (byLine[d.Pos.Line][d.Check] || byLine[d.Pos.Line-1][d.Check]) {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}
