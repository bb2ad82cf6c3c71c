package sweep

import (
	"errors"
	"fmt"
	"strings"
)

// parallelWorkers is the pool width of RunSuite's parallel leg. It is a
// constant, not GOMAXPROCS, so the double run compares a serial run
// against a genuinely concurrent one on every host, a 1-CPU host
// included, and the artifact is the same everywhere.
const parallelWorkers = 4

// Entry is one named sweep a suite runs.
type Entry struct {
	Label    string
	Replicas int
	Seed     uint64
	Body     Body
}

// Record is one entry's outcome in the BENCH_sweep.json artifact: the
// merged statistics plus the serial-vs-parallel double-run evidence.
type Record struct {
	Label    string `json:"label"`
	Replicas int    `json:"replicas"`
	Seed     uint64 `json:"seed"`
	// Deterministic records that the serial and parallel merged reports
	// were byte-identical; Fingerprint is their (shared) fingerprint.
	Deterministic bool          `json:"deterministic"`
	Fingerprint   string        `json:"fingerprint"`
	Errors        int           `json:"errors"`
	Metrics       []MetricStats `json:"metrics"`
}

// Schema identifies the BENCH_sweep.json shape.
const Schema = "spiderfs-sweep-bench/1"

// Suite is the JSON artifact (BENCH_sweep.json) format. Every field is
// deterministic, so a fresh run must reproduce the committed artifact
// byte for byte.
type Suite struct {
	Schema string   `json:"schema"`
	Sweeps []Record `json:"sweeps"`
}

// Check reports every broken record invariant: each double run must
// agree and no replica may fail.
func (s Suite) Check() error {
	var errs []error
	for _, r := range s.Sweeps {
		if !r.Deterministic {
			errs = append(errs, fmt.Errorf("%s: serial and parallel runs diverged", r.Label))
		}
		if r.Errors > 0 {
			errs = append(errs, fmt.Errorf("%s: %d replicas failed", r.Label, r.Errors))
		}
	}
	return errors.Join(errs...)
}

// RunSuite runs every entry twice — serially (1 worker) and on a
// parallelWorkers-wide pool — verifies the merged reports are
// byte-identical, and records per-metric statistics. It errors if any
// entry's double-run diverges: a nondeterministic sweep is a broken
// sweep, not a slow one.
func RunSuite(entries []Entry) (Suite, error) {
	s := Suite{Schema: Schema}
	for _, e := range entries {
		cfg := Config{Label: e.Label, Seed: e.Seed, Replicas: e.Replicas, Workers: 1}
		serial, err := Run(cfg, e.Body)
		if err != nil {
			return s, fmt.Errorf("sweep suite %s (serial): %w", e.Label, err)
		}
		cfg.Workers = parallelWorkers
		parallel, err := Run(cfg, e.Body)
		if err != nil {
			return s, fmt.Errorf("sweep suite %s (parallel): %w", e.Label, err)
		}

		rec := Record{
			Label:         e.Label,
			Replicas:      e.Replicas,
			Seed:          e.Seed,
			Deterministic: serial.Report() == parallel.Report(),
			Fingerprint:   fmt.Sprintf("%016x", parallel.Fingerprint()),
			Errors:        parallel.Errors,
			Metrics:       parallel.Aggregate(),
		}
		s.Sweeps = append(s.Sweeps, rec)
		if !rec.Deterministic {
			return s, fmt.Errorf("sweep suite %s: serial (fingerprint %016x) and parallel (%016x) merged reports differ",
				e.Label, serial.Fingerprint(), parallel.Fingerprint())
		}
	}
	return s, nil
}

// Render formats the suite as a table for stdout.
func (s Suite) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep suite: serial vs %d-worker double run\n", parallelWorkers)
	for _, r := range s.Sweeps {
		fmt.Fprintf(&b, "%s: %d replicas, deterministic=%v, fingerprint %s\n",
			r.Label, r.Replicas, r.Deterministic, r.Fingerprint)
		for _, m := range r.Metrics {
			fmt.Fprintf(&b, "  %-24s mean %.4f ± %.4f (95%% CI, n=%d), stddev %.4f, range [%.4f, %.4f]\n",
				m.Name, m.Mean, m.CI95, m.N, m.Stddev, m.Min, m.Max)
		}
	}
	return b.String()
}
