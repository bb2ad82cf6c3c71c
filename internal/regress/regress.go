// Package regress holds the table of BENCH_*.json suites and the
// bench-regression gate over them. Each Suite row names the benchsuite
// flag and artifact file, the schema, how to generate the artifact, and
// a typed gate in two halves:
//
//   - fresh-only invariants, which a freshly generated artifact must
//     satisfy on its own (cmd/benchsuite refuses to write an artifact
//     that fails them), and
//   - drift checks, which compare the fresh artifact against the
//     committed one.
//
// Both halves decode straight into the producer's own artifact type.
// Deterministic metrics (fingerprints, sweep means, Merkle roots) get
// exact or near-exact gates; wall-clock-derived ones get an absolute
// ceiling or no gate at all, because CI runners are noisy.
//
// The package takes bytes and returns findings; all file I/O and exit
// codes live in cmd/benchsuite, keeping this package environment-free.
package regress

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"spiderfs/internal/benchsuite"
	"spiderfs/internal/serve"
	"spiderfs/internal/sweep"
)

// Gate tolerances.
const (
	// sweepMeanTol: sweep metric means are fully deterministic; only
	// float formatting round-trip error is allowed.
	sweepMeanTol = 1e-9
	// scrubOverheadCeiling: background scrubbing at the default
	// interval may tax foreground read latency by at most this
	// fraction. Gated as an absolute ceiling, since the committed value
	// sits well under it.
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

// fail builds a finding; the suite wrapper stamps the artifact name.
func fail(check, format string, args ...any) Finding {
	return Finding{Check: check, Detail: fmt.Sprintf(format, args...)}
}

// Env is what the caller injects into a suite run: the seed, the sweep
// worker count (0 = GOMAXPROCS), and a monotonic wall clock in
// nanoseconds (nil records zero timings).
type Env struct {
	Seed    uint64
	Workers int
	Clock   func() int64
}

// Generated is one fresh suite run: its stdout table, its artifact
// bytes, and the findings of its fresh-only invariants.
type Generated struct {
	Text     string
	JSON     []byte
	Findings []Finding
}

// Suite is one row of the suite table.
type Suite struct {
	Flag   string // benchsuite flag that runs the suite, e.g. "sweep"
	File   string // committed artifact, e.g. BENCH_sweep.json
	Schema string // the artifact's schema field
	About  string // one line for the flag help and the run header
	// Generate runs the suite and checks its fresh-only invariants.
	Generate func(Env) (Generated, error)

	invariants func(artifact string, fresh []byte) ([]Finding, error)
	compare    func(artifact string, committed, fresh []byte) ([]Finding, error)
}

// Suites is the suite table, in generation order.
var Suites = []Suite{
	// E3/E13/E18 seed sweeps: every record double-runs identically with
	// zero failed replicas (fresh-only); fingerprints and metric means
	// are exact against the committed run. Timings are recorded only.
	newSuite("sweep", "BENCH_sweep.json", sweep.Schema,
		"seed sweeps E3/E13/E18 (deterministic parallel replica runner, serial vs parallel double-run)",
		func(e Env) (sweep.Suite, error) {
			return sweep.RunSuite(benchsuite.SweepEntries(e.Seed), e.Workers, e.Clock)
		},
		func(f sweep.Suite) []Finding { return recordInvariants(f.Sweeps) },
		func(c, f sweep.Suite) []Finding { return recordDrift(c.Sweeps, f.Sweeps) }),
	// E19: the sweep gates on every record, plus zero undetected
	// corrupt reads at the default scrub interval, a nonzero unscrubbed
	// exposure baseline, and the scrub-overhead ceiling (all fresh-only).
	newSuite("integrity", "BENCH_integrity.json", benchsuite.IntegritySchema,
		"E19 data-integrity sweep (scrub interval vs undetected corrupt reads)",
		func(e Env) (benchsuite.IntegritySuite, error) {
			return benchsuite.RunIntegritySuite(e.Seed, e.Workers, e.Clock)
		},
		integrityInvariants,
		func(c, f benchsuite.IntegritySuite) []Finding { return recordDrift(c.Sweeps, f.Sweeps) }),
	// Session service: cold and warm-pool runs agree on every seed with
	// zero failed sessions (fresh-only); the probe fingerprint is exact
	// and every committed execution path is still measured. The
	// latency-derived fields are recorded only: a 1-CPU host
	// legitimately reports different ratios.
	newSuite("serve", "BENCH_serve.json", serve.Schema,
		"session service (warm-engine pool + result cache, cold vs warm vs cache-hit)",
		func(e Env) (serve.Suite, error) { return serve.RunBench(e.Clock), nil },
		serveInvariants, serveDrift),
	// Operations ledger: deterministic, traced-identical, audit-clean,
	// every tamper class detected (fresh-only); counts, head, root
	// sequence and per-batch anchor heads are hash-exact. Append
	// throughput is recorded only.
	newSuite("ledger", "BENCH_ledger.json", benchsuite.LedgerSchema,
		"operations ledger (anchored campaign roots, tamper scorecard, batch sweep)",
		func(e Env) (benchsuite.LedgerSuite, error) { return benchsuite.RunLedgerSuite(e.Seed, e.Clock) },
		ledgerInvariants, ledgerDrift),
}

// newSuite builds a table row from a producer's typed run function and
// the two halves of its gate.
func newSuite[T interface{ Render() string }](flag, file, schema, about string,
	run func(Env) (T, error), invariants func(fresh T) []Finding, drift func(committed, fresh T) []Finding) Suite {
	decode := func(artifact, which string, data []byte) (T, error) {
		var v T
		if err := json.Unmarshal(data, &v); err != nil {
			return v, fmt.Errorf("regress %s: %s artifact: %w", artifact, which, err)
		}
		return v, nil
	}
	return Suite{
		Flag: flag, File: file, Schema: schema, About: about,
		Generate: func(env Env) (Generated, error) {
			v, err := run(env)
			if err != nil {
				return Generated{}, err
			}
			data, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				return Generated{}, err
			}
			return Generated{Text: v.Render(), JSON: append(data, '\n'), Findings: stamp(file, invariants(v))}, nil
		},
		invariants: func(artifact string, fresh []byte) ([]Finding, error) {
			f, err := decode(artifact, "fresh", fresh)
			if err != nil {
				return nil, err
			}
			return stamp(artifact, invariants(f)), nil
		},
		compare: func(artifact string, committed, fresh []byte) ([]Finding, error) {
			c, err := decode(artifact, "committed", committed)
			if err != nil {
				return nil, err
			}
			f, err := decode(artifact, "fresh", fresh)
			if err != nil {
				return nil, err
			}
			return stamp(artifact, append(invariants(f), drift(c, f)...)), nil
		},
	}
}

func stamp(artifact string, fs []Finding) []Finding {
	for i := range fs {
		fs[i].Artifact = artifact
	}
	return fs
}

// Compare gates a fresh artifact against the committed one: the fresh
// artifact's invariants plus its drift from the committed copy. The
// schema field of the committed bytes selects the suite; a fresh
// artifact with a different schema is itself a finding (the generator
// changed shape without updating the committed baseline). The returned
// error covers malformed input, not regressions.
func Compare(artifact string, committed, fresh []byte) ([]Finding, error) {
	var ch, fh struct {
		Schema string `json:"schema"`
	}
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
	s, ok := lookup(ch.Schema)
	if !ok {
		return nil, fmt.Errorf("regress %s: unknown schema %q", artifact, ch.Schema)
	}
	return s.compare(artifact, committed, fresh)
}

func lookup(schema string) (Suite, bool) {
	i := slices.IndexFunc(Suites, func(s Suite) bool { return s.Schema == schema })
	if i < 0 {
		return Suite{}, false
	}
	return Suites[i], true
}

// byKey pairs each committed row with the fresh row of the same key and
// returns gate's findings for every pair. A committed row with no fresh
// counterpart is reported under the missing check: a fresh run that
// silently drops a measurement must not pass.
func byKey[R any, K comparable](committed, fresh []R, key func(R) K, missing, what string, gate func(c, f R) []Finding) []Finding {
	var out []Finding
	for _, c := range committed {
		k := key(c)
		i := slices.IndexFunc(fresh, func(f R) bool { return key(f) == k })
		if i < 0 {
			out = append(out, fail(missing, "%s %v absent from fresh run", what, k))
			continue
		}
		out = append(out, gate(c, fresh[i])...)
	}
	return out
}

// recordInvariants holds every sweep record to double-run determinism
// and zero failed replicas.
func recordInvariants(fresh []sweep.Record) []Finding {
	var out []Finding
	for _, r := range fresh {
		if !r.Deterministic {
			out = append(out, fail("sweep-deterministic", "%s: serial and parallel runs diverged", r.Label))
		}
		if r.Errors > 0 {
			out = append(out, fail("sweep-errors", "%s: %d replicas failed", r.Label, r.Errors))
		}
	}
	return out
}

// recordDrift holds every committed sweep record to an exact fingerprint
// and exact metric means. The fingerprint covers every replica's seed,
// params, and metrics: any behavioral change in the simulation shows up
// here exactly.
func recordDrift(committed, fresh []sweep.Record) []Finding {
	return byKey(committed, fresh, func(r sweep.Record) string { return r.Label },
		"sweep-missing", "sweep", func(cs, fs sweep.Record) []Finding {
			var out []Finding
			if fs.Fingerprint != cs.Fingerprint {
				out = append(out, fail("sweep-fingerprint", "%s: fingerprint %s != committed %s",
					cs.Label, fs.Fingerprint, cs.Fingerprint))
			}
			return append(out, byKey(cs.Metrics, fs.Metrics, func(m sweep.MetricStats) string { return m.Name },
				"sweep-metric", cs.Label+": metric", func(cm, fm sweep.MetricStats) []Finding {
					if !withinFrac(fm.Mean, cm.Mean, sweepMeanTol) {
						return []Finding{fail("sweep-metric", "%s: %s mean %v != committed %v",
							cs.Label, cm.Name, fm.Mean, cm.Mean)}
					}
					return nil
				})...)
		})
}

func integrityInvariants(f benchsuite.IntegritySuite) []Finding {
	out := recordInvariants(f.Sweeps)
	if f.UndetectedAtDefault != 0 {
		out = append(out, fail("undetected-corrupt-reads",
			"undetected_reads_at_default %v != 0: silent corruption reached clients at the default scrub interval",
			f.UndetectedAtDefault))
	}
	if f.UndetectedNoScrub <= 0 {
		out = append(out, fail("exposure-baseline",
			"undetected_reads_no_scrub %v: the unscrubbed baseline shows no exposure, so the zero-at-default gate proves nothing",
			f.UndetectedNoScrub))
	}
	if f.ScrubOverheadFrac > scrubOverheadCeiling {
		out = append(out, fail("scrub-overhead", "scrub_overhead_frac %.4f exceeds ceiling %.2f",
			f.ScrubOverheadFrac, scrubOverheadCeiling))
	}
	return out
}

func serveInvariants(f serve.Suite) []Finding {
	var out []Finding
	if !f.Deterministic {
		out = append(out, fail("serve-deterministic",
			"cold and warm-pool runs diverged (per-seed session fingerprints differ)"))
	}
	if f.Errors > 0 {
		out = append(out, fail("serve-errors", "%d sessions failed", f.Errors))
	}
	return out
}

func serveDrift(c, f serve.Suite) []Finding {
	var out []Finding
	if f.Fingerprint != c.Fingerprint {
		out = append(out, fail("serve-fingerprint", "probe fingerprint %s != committed %s (exact identity required)",
			f.Fingerprint, c.Fingerprint))
	}
	return append(out, byKey(c.Paths, f.Paths, func(p serve.PathStat) string { return p.Path },
		"serve-path", "execution path", func(cp, fp serve.PathStat) []Finding {
			if fp.Sessions == 0 {
				return []Finding{fail("serve-path", "path %s measured zero sessions (committed %d)",
					cp.Path, cp.Sessions)}
			}
			return nil
		})...)
}

func ledgerInvariants(f benchsuite.LedgerSuite) []Finding {
	var out []Finding
	if !f.Deterministic {
		out = append(out, fail("ledger-deterministic", "double-run campaign ledger exports are not byte-identical"))
	}
	if !f.TracedIdentical {
		out = append(out, fail("ledger-traced", "attaching the span tracer changed the anchored root sequence"))
	}
	if !f.AuditClean {
		out = append(out, fail("ledger-audit", "the untampered campaign export no longer audits clean"))
	}
	if f.TampersDetected != f.TamperTotal {
		out = append(out, fail("ledger-tampers", "tampers detected %d of %d: the auditor lost coverage",
			f.TampersDetected, f.TamperTotal))
	}
	for _, t := range f.Tampers {
		if !t.Detected {
			out = append(out, fail("ledger-tampers", "tamper class %s went undetected", t.Name))
		}
	}
	return out
}

func ledgerDrift(c, f benchsuite.LedgerSuite) []Finding {
	var out []Finding
	if f.CampaignEntries != c.CampaignEntries || f.CampaignAnchors != c.CampaignAnchors ||
		f.CampaignDrops != c.CampaignDrops {
		out = append(out, fail("ledger-counts", "entries/anchors/drops %d/%d/%d != committed %d/%d/%d",
			f.CampaignEntries, f.CampaignAnchors, f.CampaignDrops,
			c.CampaignEntries, c.CampaignAnchors, c.CampaignDrops))
	}
	if f.CampaignHead != c.CampaignHead {
		out = append(out, fail("ledger-head", "campaign head %.16s.. != committed %.16s.. (exact identity required)",
			f.CampaignHead, c.CampaignHead))
	}
	if len(f.CampaignRoots) != len(c.CampaignRoots) {
		out = append(out, fail("ledger-roots", "%d roots != committed %d", len(f.CampaignRoots), len(c.CampaignRoots)))
	} else {
		for i := range c.CampaignRoots {
			if f.CampaignRoots[i] != c.CampaignRoots[i] {
				out = append(out, fail("ledger-roots", "root %d %.16s.. != committed %.16s.. (first divergence)",
					i, f.CampaignRoots[i], c.CampaignRoots[i]))
				break
			}
		}
	}
	if f.TamperTotal < c.TamperTotal {
		out = append(out, fail("ledger-tampers", "%d tamper classes run (committed %d): the auditor lost coverage",
			f.TamperTotal, c.TamperTotal))
	}
	return append(out, byKey(c.Batches, f.Batches, func(b benchsuite.LedgerBatch) int { return b.MaxBatch },
		"ledger-batch", "max_batch", func(cb, fb benchsuite.LedgerBatch) []Finding {
			if fb.Entries != cb.Entries || fb.Anchors != cb.Anchors || fb.Head != cb.Head {
				return []Finding{fail("ledger-batch",
					"max_batch %d: %d entries/%d anchors head %.16s.. != committed %d/%d head %.16s..",
					cb.MaxBatch, fb.Entries, fb.Anchors, fb.Head, cb.Entries, cb.Anchors, cb.Head)}
			}
			return nil
		})...)
}

// withinFrac reports whether got is within tol×|want| of want (exact
// match required when want is zero and tol scales nothing).
func withinFrac(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}
