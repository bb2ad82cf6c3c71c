package chaos

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestLedgerSuiteDeterministic pins the artifact's own determinism:
// two runs must marshal to the same bytes.
func TestLedgerSuiteDeterministic(t *testing.T) {
	run := func() LedgerSuite {
		s, err := RunLedgerSuite(7)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("ledger suite double run diverged:\n%s\nvs\n%s", aj, bj)
	}
}

func TestLedgerSuiteProperties(t *testing.T) {
	s, err := RunLedgerSuite(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if !s.Deterministic || !s.TracedIdentical || !s.AuditClean {
		t.Fatalf("deterministic=%v traced=%v clean=%v, want all true",
			s.Deterministic, s.TracedIdentical, s.AuditClean)
	}
	if s.CampaignEntries == 0 || s.CampaignAnchors == 0 || s.CampaignDrops != 0 {
		t.Fatalf("campaign ledger %d/%d/%d", s.CampaignEntries, s.CampaignAnchors, s.CampaignDrops)
	}
	if len(s.CampaignRoots) != s.CampaignAnchors {
		t.Fatalf("%d roots for %d anchors", len(s.CampaignRoots), s.CampaignAnchors)
	}
	if s.TamperTotal != 5 || s.TampersDetected != 5 {
		t.Fatalf("tampers %d/%d, want 5/5: %+v", s.TampersDetected, s.TamperTotal, s.Tampers)
	}
	for _, tc := range s.Tampers {
		if tc.Epoch < 0 {
			t.Fatalf("tamper %s detected without an offending epoch: %+v", tc.Name, tc)
		}
	}
	if len(s.Batches) != 4 {
		t.Fatalf("%d batch points, want 4", len(s.Batches))
	}
	prev := 0
	for _, p := range s.Batches {
		if p.Entries != batchSweepEntries {
			t.Fatalf("batch %d appended %d entries", p.MaxBatch, p.Entries)
		}
		// Smaller batches seal more anchors; the sweep must be strictly
		// ordered or the MaxBatch knob is not doing anything.
		if prev != 0 && p.Anchors >= prev {
			t.Fatalf("anchors not decreasing with batch size: %+v", s.Batches)
		}
		prev = p.Anchors
	}
	if s.Render() == "" {
		t.Fatal("empty render")
	}
}

// TestLedgerGates is the sabotage table for the BENCH_ledger.json
// invariants: a lost determinism, tracing or audit property, or an
// undetected tamper class, must each fail Check on its own.
func TestLedgerGates(t *testing.T) {
	good := LedgerSuite{
		Schema: LedgerSchema, Seed: 7, CampaignEntries: 42, CampaignAnchors: 2,
		CampaignRoots: []string{"aaaa000000000001", "aaaa000000000002"}, CampaignHead: "b6e21a5d6da66887",
		Deterministic: true, TracedIdentical: true, AuditClean: true,
		TamperTotal: 2, TampersDetected: 2,
		Tampers: []LedgerTamper{
			{Name: "entry-mutation", Detected: true, Class: "entry-mutation", Epoch: 5},
			{Name: "batch-reorder", Detected: true, Class: "anchor-break", Epoch: 2},
		},
	}
	for _, c := range []struct {
		name   string
		mutate func(*LedgerSuite)
		want   string
	}{
		{"clean", func(*LedgerSuite) {}, ""},
		{"nondeterministic", func(s *LedgerSuite) { s.Deterministic = false }, "not byte-identical"},
		{"traced", func(s *LedgerSuite) { s.TracedIdentical = false }, "span tracer"},
		{"dirty", func(s *LedgerSuite) { s.AuditClean = false }, "audits clean"},
		{"count", func(s *LedgerSuite) { s.TampersDetected = 1 }, "tampers detected 1 of 2"},
		{"missed", func(s *LedgerSuite) {
			s.Tampers = []LedgerTamper{s.Tampers[0], {Name: "batch-reorder", Epoch: -1}}
		}, "batch-reorder went undetected"},
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
