// Package regress is the bench-regression gate: it compares a
// committed BENCH_*.json artifact against a freshly generated one and
// reports findings where the fresh run has gotten worse. The gate is
// schema-aware — each artifact family declares which of its metrics
// are deterministic (exact or near-exact gates: sweep fingerprints,
// metric means, allocation counts) and which are wall-clock-derived
// (loose tolerances or no gate at all, because CI runners are noisy).
//
// The package takes bytes and returns findings; all file I/O and exit
// codes live in cmd/benchsuite, keeping this package environment-free.
package regress

import (
	"encoding/json"
	"fmt"
	"math"
)

// Tolerances for the wall-clock-adjacent gates. Deterministic gates
// (fingerprints, sweep means) do not use these.
const (
	// allocRatioFloorFrac: the netsim ordered-vs-map allocation ratio
	// may fall to this fraction of the committed value before the gate
	// trips. Allocation counts are stable across runs, but compiler
	// versions shift them slightly.
	allocRatioFloorFrac = 0.70
	// allocsPerOpSlack: per-result allocs/op may exceed the committed
	// count by this factor (plus one alloc of absolute slack).
	allocsPerOpSlack = 1.25
	// overheadCeiling: spantrace's documented acceptance ceiling —
	// tracing may cost at most this fraction of wall clock. Gated as an
	// absolute ceiling, not relative to the committed (often negative,
	// i.e. in-noise) value.
	overheadCeiling = 0.05
	// spansPerOpTolFrac: spans emitted per benchmark op are a sampling
	// count, deterministic up to batch rounding.
	spansPerOpTolFrac = 0.10
	// sweepMeanTol: sweep metric means are fully deterministic; only
	// float formatting round-trip error is allowed.
	sweepMeanTol = 1e-9
	// scrubOverheadCeiling: background scrubbing at the default
	// interval may tax foreground read latency by at most this
	// fraction. Gated as an absolute ceiling (like the spantrace
	// overhead), since the committed value sits well under it.
	scrubOverheadCeiling = 0.25
)

// Finding is one gate violation.
type Finding struct {
	Artifact string // file name, e.g. BENCH_sweep.json
	Check    string // short gate name, e.g. sweep-fingerprint
	Detail   string // human-readable committed-vs-fresh explanation
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Artifact, f.Check, f.Detail)
}

type header struct {
	Schema string `json:"schema"`
}

// Compare gates a fresh artifact against the committed one. The schema
// field of the committed bytes selects the rule set; a fresh artifact
// with a different schema is itself a finding (the generator changed
// shape without updating the committed baseline). The returned error
// covers malformed input, not regressions.
func Compare(artifact string, committed, fresh []byte) ([]Finding, error) {
	var ch, fh header
	if err := json.Unmarshal(committed, &ch); err != nil {
		return nil, fmt.Errorf("regress %s: committed artifact: %w", artifact, err)
	}
	if err := json.Unmarshal(fresh, &fh); err != nil {
		return nil, fmt.Errorf("regress %s: fresh artifact: %w", artifact, err)
	}
	if ch.Schema != fh.Schema {
		return []Finding{{artifact, "schema",
			fmt.Sprintf("committed %q vs fresh %q", ch.Schema, fh.Schema)}}, nil
	}
	switch ch.Schema {
	case "spiderfs-netsim-bench/1":
		return compareNetsim(artifact, committed, fresh)
	case "spiderfs-spantrace-bench/1":
		return compareSpantrace(artifact, committed, fresh)
	case "spiderfs-sweep-bench/1":
		return compareSweep(artifact, committed, fresh)
	case "spiderfs-integrity-bench/1":
		return compareIntegrity(artifact, committed, fresh)
	case "spiderfs-serve-bench/1":
		return compareServe(artifact, committed, fresh)
	case "spiderfs-ledger-bench/1":
		return compareLedger(artifact, committed, fresh)
	}
	return nil, fmt.Errorf("regress %s: unknown schema %q", artifact, ch.Schema)
}

type netsimDoc struct {
	Results []struct {
		Name        string  `json:"name"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"results"`
	AllocRatio float64 `json:"start_finish_alloc_ratio"`
	Speedup    float64 `json:"start_finish_speedup"`
}

func compareNetsim(artifact string, committed, fresh []byte) ([]Finding, error) {
	var c, f netsimDoc
	if err := decodeBoth(artifact, committed, fresh, &c, &f); err != nil {
		return nil, err
	}
	var out []Finding
	if floor := c.AllocRatio * allocRatioFloorFrac; f.AllocRatio < floor {
		out = append(out, Finding{artifact, "alloc-ratio",
			fmt.Sprintf("start_finish_alloc_ratio %.2f fell below floor %.2f (committed %.2f)",
				f.AllocRatio, floor, c.AllocRatio)})
	}
	// The ordered path must still beat the map baseline outright; the
	// committed margin is ~7x, so 1.0 is a generous noise allowance.
	if f.Speedup < 1.0 {
		out = append(out, Finding{artifact, "speedup",
			fmt.Sprintf("start_finish_speedup %.2f < 1.0 (ordered path slower than map baseline; committed %.2f)",
				f.Speedup, c.Speedup)})
	}
	for _, cr := range c.Results {
		for _, fr := range f.Results {
			if fr.Name != cr.Name {
				continue
			}
			if ceil := cr.AllocsPerOp*allocsPerOpSlack + 1; fr.AllocsPerOp > ceil {
				out = append(out, Finding{artifact, "allocs-per-op",
					fmt.Sprintf("%s allocs/op %.0f exceeds ceiling %.0f (committed %.0f)",
						cr.Name, fr.AllocsPerOp, ceil, cr.AllocsPerOp)})
			}
		}
	}
	return out, nil
}

type spantraceDoc struct {
	Overhead   float64 `json:"overhead_frac"`
	SpansPerOp float64 `json:"spans_per_op"`
}

func compareSpantrace(artifact string, committed, fresh []byte) ([]Finding, error) {
	var c, f spantraceDoc
	if err := decodeBoth(artifact, committed, fresh, &c, &f); err != nil {
		return nil, err
	}
	var out []Finding
	if f.Overhead > overheadCeiling {
		out = append(out, Finding{artifact, "overhead",
			fmt.Sprintf("overhead_frac %.4f exceeds ceiling %.2f (committed %.4f)",
				f.Overhead, overheadCeiling, c.Overhead)})
	}
	if !withinFrac(f.SpansPerOp, c.SpansPerOp, spansPerOpTolFrac) {
		out = append(out, Finding{artifact, "spans-per-op",
			fmt.Sprintf("spans_per_op %.1f drifted beyond %.0f%% of committed %.1f",
				f.SpansPerOp, spansPerOpTolFrac*100, c.SpansPerOp)})
	}
	return out, nil
}

// sweepRec is the gated slice of one sweep record; sweep-family and
// integrity-family artifacts both carry lists of these.
type sweepRec struct {
	Label         string `json:"label"`
	Deterministic bool   `json:"deterministic"`
	Fingerprint   string `json:"fingerprint"`
	Errors        int    `json:"errors"`
	Metrics       []struct {
		Name string  `json:"name"`
		Mean float64 `json:"mean"`
	} `json:"metrics"`
}

type sweepDoc struct {
	Sweeps []sweepRec `json:"sweeps"`
}

func compareSweep(artifact string, committed, fresh []byte) ([]Finding, error) {
	var c, f sweepDoc
	if err := decodeBoth(artifact, committed, fresh, &c, &f); err != nil {
		return nil, err
	}
	return compareSweepRecords(artifact, c.Sweeps, f.Sweeps), nil
}

// compareSweepRecords applies the deterministic sweep gates — exact
// fingerprints, exact metric means, zero replica errors, double-run
// determinism — to every committed record.
func compareSweepRecords(artifact string, committed, fresh []sweepRec) []Finding {
	var out []Finding
	for _, cs := range committed {
		found := false
		for _, fs := range fresh {
			if fs.Label != cs.Label {
				continue
			}
			found = true
			if !fs.Deterministic {
				out = append(out, Finding{artifact, "sweep-deterministic",
					fmt.Sprintf("%s: serial and parallel runs diverged", cs.Label)})
			}
			if fs.Errors > 0 {
				out = append(out, Finding{artifact, "sweep-errors",
					fmt.Sprintf("%s: %d replicas failed (committed %d)", cs.Label, fs.Errors, cs.Errors)})
			}
			// The fingerprint covers every replica's seed, params, and
			// metrics: any behavioral change in the simulation shows up
			// here exactly.
			if fs.Fingerprint != cs.Fingerprint {
				out = append(out, Finding{artifact, "sweep-fingerprint",
					fmt.Sprintf("%s: fingerprint %s != committed %s", cs.Label, fs.Fingerprint, cs.Fingerprint)})
			}
			for _, cm := range cs.Metrics {
				got, ok := findMean(fs.Metrics, cm.Name)
				if !ok {
					out = append(out, Finding{artifact, "sweep-metric",
						fmt.Sprintf("%s: metric %s missing from fresh run", cs.Label, cm.Name)})
					continue
				}
				if !withinFrac(got, cm.Mean, sweepMeanTol) {
					out = append(out, Finding{artifact, "sweep-metric",
						fmt.Sprintf("%s: %s mean %v != committed %v", cs.Label, cm.Name, got, cm.Mean)})
				}
			}
			break
		}
		if !found {
			out = append(out, Finding{artifact, "sweep-missing",
				fmt.Sprintf("sweep %s absent from fresh run", cs.Label)})
		}
	}
	return out
}

type integrityDoc struct {
	Sweeps              []sweepRec `json:"sweeps"`
	UndetectedAtDefault float64    `json:"undetected_reads_at_default"`
	UndetectedNoScrub   float64    `json:"undetected_reads_no_scrub"`
	ScrubOverheadFrac   float64    `json:"scrub_overhead_frac"`
}

// compareIntegrity gates BENCH_integrity.json: the standard exact sweep
// gates on every E19 record, plus two headline properties of the fresh
// run itself — zero undetected corrupt reads at the default scrub
// interval (a hard invariant, not a drift check) and a bounded
// foreground overhead for background scrubbing.
func compareIntegrity(artifact string, committed, fresh []byte) ([]Finding, error) {
	var c, f integrityDoc
	if err := decodeBoth(artifact, committed, fresh, &c, &f); err != nil {
		return nil, err
	}
	out := compareSweepRecords(artifact, c.Sweeps, f.Sweeps)
	if f.UndetectedAtDefault != 0 {
		out = append(out, Finding{artifact, "undetected-corrupt-reads",
			fmt.Sprintf("undetected_reads_at_default %v != 0 (committed %v): silent corruption reached clients at the default scrub interval",
				f.UndetectedAtDefault, c.UndetectedAtDefault)})
	}
	if f.UndetectedNoScrub <= 0 {
		out = append(out, Finding{artifact, "exposure-baseline",
			fmt.Sprintf("undetected_reads_no_scrub %v: the unscrubbed baseline shows no exposure, so the zero-at-default gate proves nothing",
				f.UndetectedNoScrub)})
	}
	if f.ScrubOverheadFrac > scrubOverheadCeiling {
		out = append(out, Finding{artifact, "scrub-overhead",
			fmt.Sprintf("scrub_overhead_frac %.4f exceeds ceiling %.2f (committed %.4f)",
				f.ScrubOverheadFrac, scrubOverheadCeiling, c.ScrubOverheadFrac)})
	}
	return out, nil
}

type serveDoc struct {
	Fingerprint   string `json:"fingerprint"`
	Deterministic bool   `json:"deterministic"`
	Errors        int    `json:"errors"`
	Paths         []struct {
		Path     string `json:"path"`
		Sessions int    `json:"sessions"`
	} `json:"paths"`
}

// compareServe gates BENCH_serve.json: the probe fingerprint is exact
// (a pooled session must reproduce the cold run bit for bit), the
// cold-vs-warm double run must agree on every seed (Deterministic),
// zero sessions may fail, and every committed execution path must still
// be measured with at least one session. The latency-derived fields —
// sessions/sec, percentiles, warm/cache speedups — are recorded only:
// a single-CPU host regenerating the artifact legitimately reports
// different ratios.
func compareServe(artifact string, committed, fresh []byte) ([]Finding, error) {
	var c, f serveDoc
	if err := decodeBoth(artifact, committed, fresh, &c, &f); err != nil {
		return nil, err
	}
	var out []Finding
	if !f.Deterministic {
		out = append(out, Finding{artifact, "serve-deterministic",
			"cold and warm-pool runs diverged (per-seed session fingerprints differ)"})
	}
	if f.Errors > 0 {
		out = append(out, Finding{artifact, "serve-errors",
			fmt.Sprintf("%d sessions failed (committed %d)", f.Errors, c.Errors)})
	}
	if f.Fingerprint != c.Fingerprint {
		out = append(out, Finding{artifact, "serve-fingerprint",
			fmt.Sprintf("probe fingerprint %s != committed %s (exact identity required)",
				f.Fingerprint, c.Fingerprint)})
	}
	for _, cp := range c.Paths {
		found := false
		for _, fp := range f.Paths {
			if fp.Path != cp.Path {
				continue
			}
			found = true
			if fp.Sessions == 0 {
				out = append(out, Finding{artifact, "serve-path",
					fmt.Sprintf("path %s measured zero sessions (committed %d)", cp.Path, cp.Sessions)})
			}
			break
		}
		if !found {
			out = append(out, Finding{artifact, "serve-path",
				fmt.Sprintf("execution path %s absent from fresh run", cp.Path)})
		}
	}
	return out, nil
}

type ledgerDoc struct {
	CampaignEntries int      `json:"campaign_entries"`
	CampaignAnchors int      `json:"campaign_anchors"`
	CampaignDrops   int      `json:"campaign_drops"`
	CampaignRoots   []string `json:"campaign_roots"`
	CampaignHead    string   `json:"campaign_head"`
	Deterministic   bool     `json:"deterministic"`
	TracedIdentical bool     `json:"traced_identical"`
	AuditClean      bool     `json:"audit_clean"`
	TamperTotal     int      `json:"tamper_total"`
	TampersDetected int      `json:"tampers_detected"`
	Tampers         []struct {
		Name     string `json:"name"`
		Detected bool   `json:"detected"`
	} `json:"tampers"`
	Batches []struct {
		MaxBatch int    `json:"max_batch"`
		Entries  int    `json:"entries"`
		Anchors  int    `json:"anchors"`
		Head     string `json:"head"`
	} `json:"batches"`
}

// compareLedger gates BENCH_ledger.json. The root sequence, head, and
// per-batch anchor heads are hash-exact: any divergence means the
// operations ledger's determinism contract broke. The three booleans
// and the full tamper scorecard are hard invariants of the fresh run.
// The wall-clock throughput fields (append_ns, entries_per_sec) are
// recorded, not gated.
func compareLedger(artifact string, committed, fresh []byte) ([]Finding, error) {
	var c, f ledgerDoc
	if err := decodeBoth(artifact, committed, fresh, &c, &f); err != nil {
		return nil, err
	}
	var out []Finding
	if !f.Deterministic {
		out = append(out, Finding{artifact, "ledger-deterministic",
			"double-run campaign ledger exports are not byte-identical"})
	}
	if !f.TracedIdentical {
		out = append(out, Finding{artifact, "ledger-traced",
			"attaching the span tracer changed the anchored root sequence"})
	}
	if !f.AuditClean {
		out = append(out, Finding{artifact, "ledger-audit",
			"the untampered campaign export no longer audits clean"})
	}
	if f.CampaignEntries != c.CampaignEntries || f.CampaignAnchors != c.CampaignAnchors ||
		f.CampaignDrops != c.CampaignDrops {
		out = append(out, Finding{artifact, "ledger-counts",
			fmt.Sprintf("entries/anchors/drops %d/%d/%d != committed %d/%d/%d",
				f.CampaignEntries, f.CampaignAnchors, f.CampaignDrops,
				c.CampaignEntries, c.CampaignAnchors, c.CampaignDrops)})
	}
	if f.CampaignHead != c.CampaignHead {
		out = append(out, Finding{artifact, "ledger-head",
			fmt.Sprintf("campaign head %.16s.. != committed %.16s.. (exact identity required)",
				f.CampaignHead, c.CampaignHead)})
	}
	if len(f.CampaignRoots) != len(c.CampaignRoots) {
		out = append(out, Finding{artifact, "ledger-roots",
			fmt.Sprintf("%d roots != committed %d", len(f.CampaignRoots), len(c.CampaignRoots))})
	} else {
		for i := range c.CampaignRoots {
			if f.CampaignRoots[i] != c.CampaignRoots[i] {
				out = append(out, Finding{artifact, "ledger-roots",
					fmt.Sprintf("root %d %.16s.. != committed %.16s.. (first divergence)",
						i, f.CampaignRoots[i], c.CampaignRoots[i])})
				break
			}
		}
	}
	if f.TamperTotal < c.TamperTotal || f.TampersDetected != f.TamperTotal {
		out = append(out, Finding{artifact, "ledger-tampers",
			fmt.Sprintf("tampers detected %d of %d (committed %d of %d): the auditor lost coverage",
				f.TampersDetected, f.TamperTotal, c.TampersDetected, c.TamperTotal)})
	}
	for _, ft := range f.Tampers {
		if !ft.Detected {
			out = append(out, Finding{artifact, "ledger-tampers",
				fmt.Sprintf("tamper class %s went undetected", ft.Name)})
		}
	}
	for _, cb := range c.Batches {
		found := false
		for _, fb := range f.Batches {
			if fb.MaxBatch != cb.MaxBatch {
				continue
			}
			found = true
			if fb.Entries != cb.Entries || fb.Anchors != cb.Anchors || fb.Head != cb.Head {
				out = append(out, Finding{artifact, "ledger-batch",
					fmt.Sprintf("max_batch %d: %d entries/%d anchors head %.16s.. != committed %d/%d head %.16s..",
						cb.MaxBatch, fb.Entries, fb.Anchors, fb.Head,
						cb.Entries, cb.Anchors, cb.Head)})
			}
			break
		}
		if !found {
			out = append(out, Finding{artifact, "ledger-batch",
				fmt.Sprintf("max_batch %d point absent from fresh run", cb.MaxBatch)})
		}
	}
	return out, nil
}

func findMean(metrics []struct {
	Name string  `json:"name"`
	Mean float64 `json:"mean"`
}, name string) (float64, bool) {
	for _, m := range metrics {
		if m.Name == name {
			return m.Mean, true
		}
	}
	return 0, false
}

func decodeBoth(artifact string, committed, fresh []byte, c, f any) error {
	if err := json.Unmarshal(committed, c); err != nil {
		return fmt.Errorf("regress %s: committed artifact: %w", artifact, err)
	}
	if err := json.Unmarshal(fresh, f); err != nil {
		return fmt.Errorf("regress %s: fresh artifact: %w", artifact, err)
	}
	return nil
}

// withinFrac reports whether got is within tol×|want| of want (exact
// match required when want is zero and tol scales nothing).
func withinFrac(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}
