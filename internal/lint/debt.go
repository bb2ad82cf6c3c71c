package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Suppression debt: every //simlint:allow directive is a hole punched
// through an invariant, and holes accumulate silently — the paper's
// §IV-E incident class (human error) is exactly the failure mode of
// discipline that nobody re-audits. simlint -debt turns the directives
// into a managed inventory: each site is located, its reason captured,
// and its usefulness verified (a directive that suppresses nothing is
// stale and must go). A committed baseline pins the accepted totals,
// and the gate fails CI when debt grows, a site ships without a
// reason, or a directive goes stale.

// DebtSite is one //simlint:allow directive found in the module.
type DebtSite struct {
	File   string   `json:"file"` // module-root-relative, forward slashes
	Line   int      `json:"line"`
	Checks []string `json:"checks"`
	Reason string   `json:"reason,omitempty"`
	Used   bool     `json:"used"` // suppressed at least one diagnostic
	// Untested lists the functions a test-only-export site keeps that
	// no file mentions by name, test files included: the reason such a
	// directive gives (a test calls it) no longer holds.
	Untested []string `json:"untested,omitempty"`
}

// CheckDebt is the per-check slice of the inventory, kept as a sorted
// list (not a map) so report emission is deterministic by construction.
type CheckDebt struct {
	Check string `json:"check"`
	Sites int    `json:"sites"`
}

// DebtReport is the full suppression-debt inventory.
type DebtReport struct {
	Total    int         `json:"total"`
	PerCheck []CheckDebt `json:"per_check"`
	Sites    []DebtSite  `json:"sites"`
}

// Baseline pins the accepted debt totals a repository has consciously
// signed off on. It deliberately omits line numbers: moving a site
// around is refactoring, adding one is new debt.
type Baseline struct {
	Total    int         `json:"total"`
	PerCheck []CheckDebt `json:"per_check"`
}

// Baseline derives the pin from a fresh report.
func (r DebtReport) Baseline() Baseline {
	per := make([]CheckDebt, len(r.PerCheck))
	copy(per, r.PerCheck)
	return Baseline{Total: r.Total, PerCheck: per}
}

// sites returns the count pinned for check, zero if absent.
func (b Baseline) sites(check string) int {
	for _, c := range b.PerCheck {
		if c.Check == check {
			return c.Sites
		}
	}
	return 0
}

// Debt inventories every allow directive in the module and marks which
// ones actually suppress a diagnostic. It runs every check: a directive
// is stale only if no check needs it.
func (m *Module) Debt() DebtReport {
	return m.debtOver(m.Pkgs)
}

// debtOver is Debt over an explicit package list (fixture packages in
// tests, the whole module in production).
func (m *Module) debtOver(pkgs []*Package) DebtReport {
	var sites []DebtSite
	type key struct {
		file string
		line int
	}
	index := map[key]int{} // directive position -> sites index
	// Test files are parsed syntax-only, so a mention is checked by
	// name; a name clash can only make an untested export look tested.
	mentioned := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.TestFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					mentioned[id.Name] = true
				}
				return true
			})
		}
	}
	for _, p := range pkgs {
		files := append(append([]*ast.File(nil), p.Files...), p.TestFiles...)
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, reason, ok := parseAllowDirective(c.Text)
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					index[key{pos.Filename, pos.Line}] = len(sites)
					sites = append(sites, DebtSite{
						File:   m.relPath(pos.Filename),
						Line:   pos.Line,
						Checks: names,
						Reason: reason,
					})
				}
			}
		}
		// Usage: a directive is alive iff the unfiltered run produces a
		// diagnostic it matches (same file, its line or the line below,
		// check named).
		for _, d := range m.runPackageUnfiltered(p, Checks()) {
			pos := d.Pos
			for _, line := range []int{pos.Line, pos.Line - 1} {
				i, ok := index[key{pos.Filename, line}]
				if !ok {
					continue
				}
				for _, name := range sites[i].Checks {
					if name != d.Check {
						continue
					}
					sites[i].Used = true
					// A field site has no such check: no file reads
					// the field, tests included, so no test keeps it.
					if fn := funcNameAt(m, p, pos); d.Check == "test-only-export" && fn != "" && !mentioned[fn] {
						sites[i].Untested = append(sites[i].Untested, fn)
					}
				}
			}
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].File != sites[j].File {
			return sites[i].File < sites[j].File
		}
		return sites[i].Line < sites[j].Line
	})
	counts := map[string]int{}
	for _, s := range sites {
		for _, name := range s.Checks {
			counts[name]++
		}
	}
	var per []CheckDebt
	for name, n := range counts {
		per = append(per, CheckDebt{Check: name, Sites: n})
	}
	sort.Slice(per, func(i, j int) bool { return per[i].Check < per[j].Check })
	return DebtReport{Total: len(sites), PerCheck: per, Sites: sites}
}

// funcNameAt returns the name of the function p declares at pos, the
// position test-only-export reports, or "" when pos is a field.
func funcNameAt(m *Module, p *Package, pos token.Position) string {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && m.Fset.Position(fd.Name.Pos()) == pos {
				return fd.Name.Name
			}
		}
	}
	return ""
}

// relPath rewrites a fileset position filename relative to the module
// root with forward slashes, so baselines are host-independent.
func (m *Module) relPath(name string) string {
	rel, err := filepath.Rel(m.Root, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(name)
	}
	return filepath.ToSlash(rel)
}

// GateDebt compares a fresh inventory against the committed baseline
// and returns the policy violations, empty when the gate passes:
//
//   - a directive without a reason (never baselined — reasons are the
//     reviewable half of the escape hatch),
//   - a stale directive that suppresses nothing (dead weight that hides
//     real future violations on its line),
//   - a test-only-export directive on a function no file mentions, test
//     files included (its tests are gone, so the function is dead),
//   - total or per-check growth beyond the baseline.
//
// Shrinking debt passes; Tighten reports when the pin can be lowered.
func GateDebt(base Baseline, r DebtReport) []string {
	var fails []string
	for _, s := range r.Sites {
		if s.Reason == "" {
			fails = append(fails, fmt.Sprintf("%s:%d: //simlint:allow %s has no reason; the reason is the reviewable half of the directive",
				s.File, s.Line, strings.Join(s.Checks, ",")))
		}
		if !s.Used {
			fails = append(fails, fmt.Sprintf("%s:%d: stale //simlint:allow %s suppresses nothing; delete it",
				s.File, s.Line, strings.Join(s.Checks, ",")))
		}
		for _, fn := range s.Untested {
			fails = append(fails, fmt.Sprintf("%s:%d: //simlint:allow test-only-export keeps %s, which no file mentions, test files included; delete it",
				s.File, s.Line, fn))
		}
	}
	if r.Total > base.Total {
		fails = append(fails, fmt.Sprintf("suppression debt grew: %d sites, baseline pins %d; fix the new site or consciously raise the baseline with -debt -update",
			r.Total, base.Total))
	}
	for _, c := range r.PerCheck {
		if c.Sites > base.sites(c.Check) {
			fails = append(fails, fmt.Sprintf("suppression debt for %s grew: %d sites, baseline pins %d",
				c.Check, c.Sites, base.sites(c.Check)))
		}
	}
	return fails
}

// Tighten reports where the baseline is looser than reality, so a
// debt-reducing PR can also ratchet the pin down.
func Tighten(base Baseline, r DebtReport) []string {
	var notes []string
	if r.Total < base.Total {
		notes = append(notes, fmt.Sprintf("debt shrank: %d sites, baseline pins %d; ratchet with -debt -update", r.Total, base.Total))
	}
	return notes
}
