package sweep

import (
	"fmt"
	"runtime"
	"strings"
)

// Clock returns monotonic nanoseconds. The caller injects it (cmd
// binaries pass a wall clock, tests a counter) so this package stays
// wall-clock-free under the no-wallclock invariant; a nil Clock records
// zero durations.
type Clock func() int64

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
	Workers  int    `json:"workers"`
	// SerialNs and ParallelNs time the same sweep at 1 worker and at
	// Workers workers; Speedup is their ratio. On a single-CPU host the
	// ratio is ~1 by physics — the CPUs field says which case this is.
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
	// Deterministic records that the serial and parallel merged reports
	// were byte-identical; Fingerprint is their (shared) fingerprint.
	Deterministic bool          `json:"deterministic"`
	Fingerprint   string        `json:"fingerprint"`
	Errors        int           `json:"errors"`
	Metrics       []MetricStats `json:"metrics"`
}

// Schema identifies the BENCH_sweep.json shape.
const Schema = "spiderfs-sweep-bench/1"

// Suite is the JSON artifact (BENCH_sweep.json) format.
type Suite struct {
	Schema string `json:"schema"`
	// CPUs is runtime.GOMAXPROCS on the generating host — the ceiling on
	// any honest wall-clock speedup below.
	CPUs    int      `json:"cpus"`
	Workers int      `json:"workers"`
	Sweeps  []Record `json:"sweeps"`
}

// RunSuite runs every entry twice — serially (1 worker) and on a
// workers-wide pool — verifies the merged reports are byte-identical,
// and records per-metric statistics, timings, and the speedup. It
// errors if any entry's double-run diverges: a nondeterministic sweep
// is a broken sweep, not a slow one.
func RunSuite(entries []Entry, workers int, clock Clock) (Suite, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	now := func() int64 { return 0 }
	if clock != nil {
		now = clock
	}
	s := Suite{Schema: Schema, CPUs: runtime.GOMAXPROCS(0), Workers: workers}
	for _, e := range entries {
		cfg := Config{Label: e.Label, Seed: e.Seed, Replicas: e.Replicas, Workers: 1}
		t0 := now()
		serial, err := Run(cfg, e.Body)
		if err != nil {
			return s, fmt.Errorf("sweep suite %s (serial): %w", e.Label, err)
		}
		t1 := now()
		cfg.Workers = workers
		parallel, err := Run(cfg, e.Body)
		if err != nil {
			return s, fmt.Errorf("sweep suite %s (parallel): %w", e.Label, err)
		}
		t2 := now()

		rec := Record{
			Label:      e.Label,
			Replicas:   e.Replicas,
			Seed:       e.Seed,
			Workers:    workers,
			SerialNs:   t1 - t0,
			ParallelNs: t2 - t1,
			Errors:     parallel.Errors,
			Metrics:    parallel.Aggregate(),
		}
		rec.Deterministic = serial.Report() == parallel.Report()
		rec.Fingerprint = fmt.Sprintf("%016x", parallel.Fingerprint())
		if rec.ParallelNs > 0 {
			rec.Speedup = float64(rec.SerialNs) / float64(rec.ParallelNs)
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
	fmt.Fprintf(&b, "sweep suite: %d workers on %d CPU(s)\n", s.Workers, s.CPUs)
	for _, r := range s.Sweeps {
		fmt.Fprintf(&b, "%s: %d replicas, serial %.0f ms -> parallel %.0f ms (%.2fx), deterministic=%v, fingerprint %s\n",
			r.Label, r.Replicas, float64(r.SerialNs)/1e6, float64(r.ParallelNs)/1e6,
			r.Speedup, r.Deterministic, r.Fingerprint)
		for _, m := range r.Metrics {
			fmt.Fprintf(&b, "  %-24s mean %.4f ± %.4f (95%% CI, n=%d), stddev %.4f, range [%.4f, %.4f]\n",
				m.Name, m.Mean, m.CI95, m.N, m.Stddev, m.Min, m.Max)
		}
	}
	return b.String()
}
