package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spiderfs/internal/chaos"
	"spiderfs/internal/experiment"
	"spiderfs/internal/serve"
	"spiderfs/internal/sweep"
)

// TestSuiteTableMatchesCommittedArtifacts ties the suite table to the
// repository's committed BENCH_*.json goldens: every file has a table
// row and every row a file, each file decodes into its producer's type
// with no unknown field and the schema it was written under, and each
// passes its producer's Check. A re-pinned artifact that breaks an
// invariant fails here without regenerating anything.
func TestSuiteTableMatchesCommittedArtifacts(t *testing.T) {
	producers := map[string]struct {
		schema string
		into   artifact
	}{
		"BENCH_sweep.json":     {sweep.Schema, &sweep.Suite{}},
		"BENCH_integrity.json": {experiment.IntegritySchema, &experiment.IntegritySuite{}},
		"BENCH_serve.json":     {serve.Schema, &serve.Suite{}},
		"BENCH_ledger.json":    {chaos.LedgerSchema, &chaos.LedgerSuite{}},
	}
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	committed := map[string]bool{}
	for _, p := range paths {
		name := filepath.Base(p)
		committed[name] = true
		prod, ok := producers[name]
		if !ok {
			t.Errorf("%s: no producer for this artifact", name)
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(data, &h); err != nil || h.Schema != prod.schema {
			t.Errorf("%s: schema %q (%v), want %q", name, h.Schema, err, prod.schema)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(prod.into); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := prod.into.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, s := range suites {
		if _, ok := producers[s.file]; !ok || !committed[s.file] {
			t.Errorf("suite -%s: no committed %s", s.flag, s.file)
		}
	}
}

// TestRejectsOutOfRangeFlags: a cell time that is not positive once
// converted to simulated time, or above an hour, exits 2 with one line
// on stderr before anything runs, instead of a table of zero-throughput
// cells or a sweep that never finishes.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-cell", "0"}, {"-cell", "-1"}, {"-cell", "1e-12"}, {"-cell", "NaN"},
		{"-cell", "3601"}, {"-cell", "1e300"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "benchsuite: ") || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one benchsuite: line", args, code, &stdout, &stderr)
		}
	}
}
