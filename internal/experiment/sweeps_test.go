package experiment

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"spiderfs/internal/sweep"
)

// small trims the standard entries to a handful of replicas so the
// double-run contract is exercised on the real experiment bodies
// without paying full campaign cost in tier-1.
func small() []sweep.Entry {
	entries := Sweeps()
	for i := range entries {
		entries[i].Replicas = 3
	}
	return entries
}

// TestSweepSuiteDeterministic runs every entry of Sweeps on its real
// replica bodies through the suite harness, which itself double-runs each sweep
// serially and in parallel and fails on any divergence. Then the whole
// suite is run twice to check the rendered artifact is reproducible.
func TestSweepSuiteDeterministic(t *testing.T) {
	a, err := sweep.RunSuite(7, small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sweep.RunSuite(7, small())
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, r := range a.Sweeps {
		labels = append(labels, r.Label)
	}
	want := []string{"e3-slowdisk", "e13-purge", "e18-chaos", "e19-scrub-off", "e19-scrub-default", "e19-scrub-slow"}
	if !slices.Equal(labels, want) {
		t.Fatalf("suite ran %v, want %v", labels, want)
	}
	for i, r := range a.Sweeps {
		if !r.Deterministic {
			t.Errorf("%s: serial and parallel runs diverged", r.Label)
		}
		if r.Fingerprint != b.Sweeps[i].Fingerprint {
			t.Errorf("%s: fingerprint differs across suite runs: %s vs %s",
				r.Label, r.Fingerprint, b.Sweeps[i].Fingerprint)
		}
		if r.Errors != 0 {
			t.Errorf("%s: %d failed replicas", r.Label, r.Errors)
		}
		if len(r.Metrics) == 0 {
			t.Errorf("%s: no merged metrics", r.Label)
		}
	}
	for _, label := range want {
		if !strings.Contains(a.Render(), label) {
			t.Errorf("render omits %s", label)
		}
	}
}

// TestModelPackagesDoNotImportSweep keeps the sweep definitions in this
// package: the models the sweep bodies run (qa, purge, chaos,
// integrity) expose plain entry points and never import the sweep
// runner themselves.
func TestModelPackagesDoNotImportSweep(t *testing.T) {
	const runner = "spiderfs/internal/sweep"
	for _, pkg := range []string{"qa", "purge", "chaos", "integrity"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("internal/%s: no Go files found", pkg)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range parsed.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == runner {
					t.Errorf("%s imports %s: seed sweeps belong in internal/experiment", f, runner)
				}
			}
		}
	}
}
