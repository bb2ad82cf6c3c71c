package lint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuppressionDebtGate is the debt gate in test form: the committed
// tree's //simlint:allow inventory must pass against the committed
// baseline — every site reasoned, every site actually suppressing
// something, totals and per-check counts equal to the pin. This is the same predicate
// `simlint -debt` enforces in verify.sh and CI.
func TestSuppressionDebtGate(t *testing.T) {
	m := loadRepo(t)
	report := m.Debt()

	data, err := os.ReadFile("../../.simlint-baseline.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}
	for _, f := range GateDebt(base, report) {
		t.Errorf("debt gate: %s", f)
	}
	if report.Total == 0 {
		t.Fatal("debt inventory found no sites; the collector is broken")
	}
}

// TestDebtInventoryShape spot-checks the inventory against known
// committed sites: module-root-relative paths, captured reasons, and
// per-check totals consistent with the site list.
func TestDebtInventoryShape(t *testing.T) {
	m := loadRepo(t)
	report := m.Debt()

	counts := map[string]int{}
	foundCausality := false
	for _, s := range report.Sites {
		if strings.Contains(s.File, "\\") || strings.HasPrefix(s.File, "/") || strings.HasPrefix(s.File, "..") {
			t.Errorf("site path %q is not module-root-relative", s.File)
		}
		if len(s.Checks) == 0 {
			t.Errorf("%s:%d: site with no check names survived parsing", s.File, s.Line)
		}
		for _, c := range s.Checks {
			counts[c]++
		}
		if s.File == "internal/sim/engine.go" && s.Checks[0] == "no-library-panic" {
			foundCausality = true
			if !strings.Contains(s.Reason, "causality assertion") {
				t.Errorf("engine causality site lost its reason: %q", s.Reason)
			}
		}
	}
	if !foundCausality {
		t.Error("inventory missed the internal/sim/engine.go causality-assertion sites")
	}
	if len(report.Sites) != report.Total {
		t.Errorf("Total %d != len(Sites) %d", report.Total, len(report.Sites))
	}
	for _, c := range report.PerCheck {
		if counts[c.Check] != c.Sites {
			t.Errorf("PerCheck[%s] = %d, sites say %d", c.Check, c.Sites, counts[c.Check])
		}
	}
}

// TestDebtStaleDetection proves usage tracking end to end on a fixture
// module package: one directive that suppresses a real diagnostic, one
// that suppresses nothing.
func TestDebtStaleDetection(t *testing.T) {
	m := loadRepo(t)
	pkg, err := m.TypecheckSource("spiderfs/internal/debtfix", map[string]string{
		"debtfix.go": `package debtfix

func provoke() {
	panic("debtfix: annotated") //simlint:allow no-library-panic fixture: proves usage tracking
}

func calm() int {
	x := 1 //simlint:allow no-wallclock fixture: nothing on this line to suppress
	return x
}

var _ = []any{provoke, calm}
`,
	})
	if err != nil {
		t.Fatalf("TypecheckSource: %v", err)
	}

	// Filtered run: the annotated panic is silenced, the stale
	// directive changes nothing.
	if diags := m.RunPackage(pkg, Checks()); len(diags) != 0 {
		t.Fatalf("fixture should be clean after filtering, got %v", diags)
	}

	// The inventory over the same package must mark one site used, one
	// stale.
	report := m.debtOver([]*Package{pkg})
	if report.Total != 2 {
		t.Fatalf("inventory found %d sites, want 2: %+v", report.Total, report.Sites)
	}
	for _, s := range report.Sites {
		wantUsed := s.Checks[0] == "no-library-panic"
		if s.Used != wantUsed {
			t.Errorf("%s site: Used = %v, want %v", s.Checks[0], s.Used, wantUsed)
		}
	}
	if fails := GateDebt(Baseline{Total: 2, PerCheck: report.PerCheck}, report); len(fails) != 1 || !strings.Contains(fails[0], "stale") {
		t.Errorf("gate should flag exactly the stale site, got %v", fails)
	}
}

// TestDebtUntestedOracle runs the gate over the testdata/debt pair: a
// test-only-export directive on a function no file mentions, test
// files included, fails it by name; the same directive with a test
// that calls the function passes.
func TestDebtUntestedOracle(t *testing.T) {
	m := loadRepo(t)
	for _, c := range []struct{ dir, want string }{
		{"untested", "keeps Settle, which no file mentions"},
		{"untested_ok", ""},
	} {
		dir := filepath.Join("testdata/debt", c.dir)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range entries {
			src, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.Join(dir, e.Name())] = string(src)
		}
		pkg, err := m.TypecheckSource("spiderfs/internal/"+c.dir, files)
		if err != nil {
			t.Fatalf("%s: TypecheckSource: %v", c.dir, err)
		}
		report := m.debtOver([]*Package{pkg})
		fails := GateDebt(report.Baseline(), report)
		switch {
		case report.Total != 1 || !report.Sites[0].Used:
			t.Errorf("%s: want one used site, got %+v", c.dir, report.Sites)
		case c.want == "" && len(fails) != 0:
			t.Errorf("%s: gate should pass, got %v", c.dir, fails)
		case c.want != "" && (len(fails) != 1 || !strings.Contains(fails[0], c.want)):
			t.Errorf("%s: gate should fail once with %q, got %v", c.dir, c.want, fails)
		}
	}
}

func TestParseAllowDirectiveReasons(t *testing.T) {
	cases := []struct {
		in     string
		names  string
		reason string
		ok     bool
	}{
		{"//simlint:allow no-wallclock benchmark harness", "no-wallclock", "benchmark harness", true},
		{"//simlint:allow a,b  spaced   reason", "a b", "spaced   reason", true},
		{"//simlint:allow bare-no-reason", "bare-no-reason", "", true},
		{"//simlint:allow", "", "", false},
		{"// not a directive", "", "", false},
	}
	for _, c := range cases {
		names, reason, ok := parseAllowDirective(c.in)
		if got := strings.Join(names, " "); got != c.names || reason != c.reason || ok != c.ok {
			t.Errorf("parseAllowDirective(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.in, got, reason, ok, c.names, c.reason, c.ok)
		}
	}
}

// TestGateDebtPolicy exercises the gate rules on synthetic reports.
func TestGateDebtPolicy(t *testing.T) {
	used := func(file string, line int, check, reason string) DebtSite {
		return DebtSite{File: file, Line: line, Checks: []string{check}, Reason: reason, Used: true}
	}
	base := Baseline{Total: 2, PerCheck: []CheckDebt{{Check: "no-library-panic", Sites: 2}}}

	ok := DebtReport{
		Total:    2,
		PerCheck: []CheckDebt{{Check: "no-library-panic", Sites: 2}},
		Sites: []DebtSite{
			used("a.go", 1, "no-library-panic", "why"),
			used("b.go", 2, "no-library-panic", "why"),
		},
	}
	if fails := GateDebt(base, ok); len(fails) != 0 {
		t.Errorf("clean report should pass, got %v", fails)
	}

	grown := ok
	grown.Total = 3
	grown.PerCheck = []CheckDebt{{Check: "no-library-panic", Sites: 3}}
	grown.Sites = append(append([]DebtSite(nil), ok.Sites...), used("c.go", 3, "no-library-panic", "why"))
	fails := GateDebt(base, grown)
	if len(fails) != 2 {
		t.Errorf("growth should fail total and per-check, got %v", fails)
	}

	reasonless := ok
	reasonless.Sites = []DebtSite{used("a.go", 1, "no-library-panic", ""), ok.Sites[1]}
	if fails := GateDebt(base, reasonless); len(fails) != 1 || !strings.Contains(fails[0], "no reason") {
		t.Errorf("reasonless site should fail, got %v", fails)
	}

	stale := ok
	stale.Sites = []DebtSite{{File: "a.go", Line: 1, Checks: []string{"no-library-panic"}, Reason: "why"}, ok.Sites[1]}
	if fails := GateDebt(base, stale); len(fails) != 1 || !strings.Contains(fails[0], "stale") {
		t.Errorf("stale site should fail, got %v", fails)
	}

	newCheck := ok
	newCheck.PerCheck = append(append([]CheckDebt(nil), ok.PerCheck...), CheckDebt{Check: "dropped-error", Sites: 1})
	if fails := GateDebt(base, newCheck); len(fails) != 1 || !strings.Contains(fails[0], "dropped-error") {
		t.Errorf("debt under a new check should fail against a baseline that never pinned it, got %v", fails)
	}

	// The pin is a ratchet: a baseline looser than the inventory fails,
	// in total and per check, until it is re-pinned.
	shrunk := DebtReport{Total: 1, PerCheck: []CheckDebt{{Check: "no-library-panic", Sites: 1}}, Sites: ok.Sites[:1]}
	fails = GateDebt(base, shrunk)
	if len(fails) != 2 || !strings.Contains(fails[0], "shrank") || !strings.Contains(fails[1], "no-library-panic shrank") {
		t.Errorf("a looser baseline should fail total and per-check, got %v", fails)
	}
	if fails := GateDebt(shrunk.Baseline(), shrunk); len(fails) != 0 {
		t.Errorf("a re-pinned baseline should pass, got %v", fails)
	}
	moved := Baseline{Total: 2, PerCheck: []CheckDebt{{Check: "no-library-panic", Sites: 1}, {Check: "test-only-export", Sites: 1}}}
	fails = GateDebt(moved, ok)
	if len(fails) != 2 || !strings.Contains(fails[0], "no-library-panic grew") || !strings.Contains(fails[1], "test-only-export shrank") {
		t.Errorf("a baseline pinning a check the inventory no longer has should fail, got %v", fails)
	}
}
