package benchsuite

import (
	"encoding/json"
	"testing"
)

// TestIntegritySuiteDeterministic runs the full E19 suite (the harness
// itself double-runs each sweep serially and in parallel) and checks
// the headline acceptance properties the regression gate pins: zero
// undetected corrupt reads at the default interval, a nonzero exposure
// baseline without scrubbing, and reproducible artifact fingerprints.
func TestIntegritySuiteDeterministic(t *testing.T) {
	a, err := RunIntegritySuite(42, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sweeps) != 3 {
		t.Fatalf("%d sweeps, want e19 off/default/slow", len(a.Sweeps))
	}
	for _, r := range a.Sweeps {
		if !r.Deterministic {
			t.Errorf("%s: serial and parallel runs diverged", r.Label)
		}
		if r.Errors != 0 {
			t.Errorf("%s: %d failed replicas", r.Label, r.Errors)
		}
	}
	if a.UndetectedAtDefault != 0 {
		t.Fatalf("undetected at default interval = %v, want exactly 0", a.UndetectedAtDefault)
	}
	if a.UndetectedNoScrub <= 0 {
		t.Fatalf("no-scrub exposure baseline = %v, want positive", a.UndetectedNoScrub)
	}
	if a.RebuildLatentNoScrub <= a.RebuildLatentDefault {
		t.Fatalf("rebuild latent hits: no-scrub %v not above default %v",
			a.RebuildLatentNoScrub, a.RebuildLatentDefault)
	}
	if a.ScrubOverheadFrac <= 0 || a.ScrubOverheadFrac > 0.25 {
		t.Fatalf("scrub overhead = %v, want measurable and under the 0.25 gate ceiling", a.ScrubOverheadFrac)
	}
	b, err := RunIntegritySuite(42, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sweeps {
		if a.Sweeps[i].Fingerprint != b.Sweeps[i].Fingerprint {
			t.Errorf("%s: fingerprint differs across suite runs: %s vs %s",
				a.Sweeps[i].Label, a.Sweeps[i].Fingerprint, b.Sweeps[i].Fingerprint)
		}
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(aj) == 0 || len(a.Render()) == 0 {
		t.Fatal("empty artifact or render")
	}
}
