package benchsuite

import (
	"encoding/json"
	"strings"
	"testing"

	"spiderfs/internal/sweep"
)

// TestIntegritySuiteDeterministic runs the full E19 suite (the harness
// itself double-runs each sweep serially and in parallel) and checks
// the headline acceptance properties Check holds it to: zero
// undetected corrupt reads at the default interval, a nonzero exposure
// baseline without scrubbing, and reproducible artifact fingerprints.
func TestIntegritySuiteDeterministic(t *testing.T) {
	a, err := RunIntegritySuite(42)
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
	if a.ScrubOverheadFrac <= 0 || a.ScrubOverheadFrac > scrubOverheadCeiling {
		t.Fatalf("scrub overhead = %v, want measurable and under the 0.25 gate ceiling", a.ScrubOverheadFrac)
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	b, err := RunIntegritySuite(42)
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

// TestIntegrityGates is the sabotage table for the BENCH_integrity.json
// invariants: an undetected corrupt read at the default interval, a
// vanished exposure baseline, excess scrub overhead, or a broken sweep
// record must each fail Check on its own, while in-band overhead passes.
func TestIntegrityGates(t *testing.T) {
	good := IntegritySuite{
		Schema: IntegritySchema, DefaultScrubS: 30,
		UndetectedNoScrub: 5.125, RebuildLatentNoScrub: 35.5, LostStripesNoScrub: 1, ScrubOverheadFrac: 0.134,
		Sweeps: []sweep.Record{{Label: "e19-scrub-default", Replicas: 8, Seed: 42,
			Deterministic: true, Fingerprint: "abcdef0123456789"}},
	}
	for _, c := range []struct {
		name   string
		mutate func(*IntegritySuite)
		want   string
	}{
		{"clean", func(*IntegritySuite) {}, ""},
		{"in-band overhead", func(s *IntegritySuite) { s.ScrubOverheadFrac = 0.168 }, ""},
		{"leak", func(s *IntegritySuite) { s.UndetectedAtDefault = 0.25 }, "undetected_reads_at_default"},
		{"vacuous", func(s *IntegritySuite) { s.UndetectedNoScrub = 0 }, "undetected_reads_no_scrub"},
		{"heavy", func(s *IntegritySuite) { s.ScrubOverheadFrac = 0.41 }, "scrub_overhead_frac"},
		{"diverged", func(s *IntegritySuite) {
			s.Sweeps = []sweep.Record{s.Sweeps[0]}
			s.Sweeps[0].Deterministic = false
		}, "diverged"},
	} {
		s := good
		c.mutate(&s)
		err := s.Check()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check() = %v, want %q", c.name, err, c.want)
		}
	}
}
