package experiment

import (
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

// TestSweepSuiteDeterministic runs the real E3/E13/E18 replica bodies
// through the suite harness, which itself double-runs each sweep
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
	if len(a.Sweeps) != 3 {
		t.Fatalf("%d sweeps, want 3", len(a.Sweeps))
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
	for _, label := range []string{"e3-slowdisk", "e13-purge", "e18-chaos"} {
		if !strings.Contains(a.Render(), label) {
			t.Errorf("render omits %s", label)
		}
	}
}
