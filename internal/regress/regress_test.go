package regress

import (
	"strings"
	"testing"
)

const netsimCommitted = `{
  "schema": "spiderfs-netsim-bench/1",
  "results": [
    {"name": "start_finish/map_baseline", "ns_per_op": 11399.5, "allocs_per_op": 62},
    {"name": "start_finish/ordered", "ns_per_op": 1663.5, "allocs_per_op": 4}
  ],
  "start_finish_alloc_ratio": 15.5,
  "start_finish_speedup": 6.85
}`

const spantraceCommitted = `{
  "schema": "spiderfs-spantrace-bench/1",
  "overhead_frac": -0.084,
  "spans_per_op": 518.75
}`

const sweepCommitted = `{
  "schema": "spiderfs-sweep-bench/1",
  "cpus": 8,
  "workers": 8,
  "sweeps": [
    {
      "label": "e18-chaos", "replicas": 32, "seed": 42, "workers": 8,
      "serial_ns": 250000000, "parallel_ns": 60000000, "speedup": 4.1,
      "deterministic": true, "fingerprint": "64bbdc892ff233d8", "errors": 0,
      "metrics": [
        {"name": "availability", "n": 32, "mean": 0.9964},
        {"name": "incidents", "n": 32, "mean": 26.25}
      ]
    }
  ]
}`

const integrityCommitted = `{
  "schema": "spiderfs-integrity-bench/1",
  "cpus": 8,
  "workers": 8,
  "default_scrub_interval_s": 30,
  "undetected_reads_at_default": 0,
  "undetected_reads_no_scrub": 5.125,
  "rebuild_latent_hits_at_default": 0,
  "rebuild_latent_hits_no_scrub": 35.5,
  "lost_stripes_no_scrub": 1.0,
  "scrub_overhead_frac": 0.134,
  "sweeps": [
    {
      "label": "e19-scrub-default", "replicas": 8, "seed": 42, "workers": 8,
      "serial_ns": 90000000, "parallel_ns": 30000000, "speedup": 3.0,
      "deterministic": true, "fingerprint": "abcdef0123456789", "errors": 0,
      "metrics": [
        {"name": "undetected_reads", "n": 8, "mean": 0},
        {"name": "scrub_repairs", "n": 8, "mean": 45.25}
      ]
    }
  ]
}`

const serveCommitted = `{
  "schema": "spiderfs-serve-bench/1",
  "cpus": 8,
  "workers": 2,
  "pool_size": 2,
  "fingerprint": "6f1d2c3b4a596877",
  "deterministic": true,
  "errors": 0,
  "cache_hits": 12,
  "cache_misses": 13,
  "cache_evictions": 0,
  "pool_reuses": 10,
  "warm_speedup": 1.8,
  "cache_speedup": 240.5,
  "paths": [
    {"path": "cold", "sessions": 12, "sessions_per_sec": 310.5, "p50_ns": 3200000, "p99_ns": 5100000},
    {"path": "warm", "sessions": 12, "sessions_per_sec": 560.2, "p50_ns": 1800000, "p99_ns": 2900000},
    {"path": "cache", "sessions": 12, "sessions_per_sec": 9100.0, "p50_ns": 13000, "p99_ns": 41000}
  ]
}`

func mustCompare(t *testing.T, artifact, committed, fresh string) []Finding {
	t.Helper()
	out, err := Compare(artifact, []byte(committed), []byte(fresh))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func wantCheck(t *testing.T, findings []Finding, check string) {
	t.Helper()
	for _, f := range findings {
		if f.Check == check {
			return
		}
	}
	t.Errorf("no %s finding in %v", check, findings)
}

func TestIdenticalArtifactsPass(t *testing.T) {
	for _, c := range []struct{ name, doc string }{
		{"BENCH_netsim.json", netsimCommitted},
		{"BENCH_spantrace.json", spantraceCommitted},
		{"BENCH_sweep.json", sweepCommitted},
		{"BENCH_integrity.json", integrityCommitted},
		{"BENCH_serve.json", serveCommitted},
		{"BENCH_ledger.json", ledgerCommitted},
	} {
		if out := mustCompare(t, c.name, c.doc, c.doc); len(out) != 0 {
			t.Errorf("%s vs itself: %v", c.name, out)
		}
	}
}

// TestPerturbedSweepFails is the sabotage test: hand-edit the fresh
// artifact the way a behavioral regression would (different
// fingerprint, shifted mean) and the gate must trip.
func TestPerturbedSweepFails(t *testing.T) {
	perturbed := strings.Replace(sweepCommitted, "64bbdc892ff233d8", "deadbeefdeadbeef", 1)
	perturbed = strings.Replace(perturbed, `"mean": 0.9964`, `"mean": 0.9876`, 1)
	out := mustCompare(t, "BENCH_sweep.json", sweepCommitted, perturbed)
	wantCheck(t, out, "sweep-fingerprint")
	wantCheck(t, out, "sweep-metric")
}

func TestSweepStructuralRegressions(t *testing.T) {
	broken := strings.Replace(sweepCommitted, `"deterministic": true`, `"deterministic": false`, 1)
	broken = strings.Replace(broken, `"errors": 0`, `"errors": 3`, 1)
	out := mustCompare(t, "BENCH_sweep.json", sweepCommitted, broken)
	wantCheck(t, out, "sweep-deterministic")
	wantCheck(t, out, "sweep-errors")

	empty := `{"schema": "spiderfs-sweep-bench/1", "sweeps": []}`
	wantCheck(t, mustCompare(t, "BENCH_sweep.json", sweepCommitted, empty), "sweep-missing")
}

func TestSweepSpeedupNotGated(t *testing.T) {
	// Wall-clock speedup varies by host CPU count and is recorded, not
	// gated: a 1-CPU runner regenerating the artifact must still pass.
	slow := strings.Replace(sweepCommitted, `"speedup": 4.1`, `"speedup": 0.93`, 1)
	if out := mustCompare(t, "BENCH_sweep.json", sweepCommitted, slow); len(out) != 0 {
		t.Errorf("speedup drift should not trip the gate: %v", out)
	}
}

// TestIntegrityGates is the sabotage suite for BENCH_integrity.json:
// any undetected corrupt read at the default interval is a hard
// failure, a vanished exposure baseline invalidates the gate, excess
// scrub overhead trips the ceiling, and the inherited sweep gates
// (fingerprints, means) stay exact.
func TestIntegrityGates(t *testing.T) {
	leak := strings.Replace(integrityCommitted,
		`"undetected_reads_at_default": 0`, `"undetected_reads_at_default": 0.25`, 1)
	wantCheck(t, mustCompare(t, "BENCH_integrity.json", integrityCommitted, leak),
		"undetected-corrupt-reads")

	vacuous := strings.Replace(integrityCommitted,
		`"undetected_reads_no_scrub": 5.125`, `"undetected_reads_no_scrub": 0`, 1)
	wantCheck(t, mustCompare(t, "BENCH_integrity.json", integrityCommitted, vacuous),
		"exposure-baseline")

	heavy := strings.Replace(integrityCommitted,
		`"scrub_overhead_frac": 0.134`, `"scrub_overhead_frac": 0.41`, 1)
	wantCheck(t, mustCompare(t, "BENCH_integrity.json", integrityCommitted, heavy),
		"scrub-overhead")

	drift := strings.Replace(integrityCommitted, "abcdef0123456789", "deadbeefdeadbeef", 1)
	drift = strings.Replace(drift, `{"name": "scrub_repairs", "n": 8, "mean": 45.25}`,
		`{"name": "scrub_repairs", "n": 8, "mean": 44.0}`, 1)
	out := mustCompare(t, "BENCH_integrity.json", integrityCommitted, drift)
	wantCheck(t, out, "sweep-fingerprint")
	wantCheck(t, out, "sweep-metric")

	// In-band overhead wobble on an otherwise identical artifact passes.
	wobble := strings.Replace(integrityCommitted,
		`"scrub_overhead_frac": 0.134`, `"scrub_overhead_frac": 0.168`, 1)
	if out := mustCompare(t, "BENCH_integrity.json", integrityCommitted, wobble); len(out) != 0 {
		t.Errorf("in-band overhead tripped the gate: %v", out)
	}
}

func TestNetsimGates(t *testing.T) {
	bad := strings.Replace(netsimCommitted, `"start_finish_alloc_ratio": 15.5`,
		`"start_finish_alloc_ratio": 3.2`, 1)
	wantCheck(t, mustCompare(t, "BENCH_netsim.json", netsimCommitted, bad), "alloc-ratio")

	slow := strings.Replace(netsimCommitted, `"start_finish_speedup": 6.85`,
		`"start_finish_speedup": 0.8`, 1)
	wantCheck(t, mustCompare(t, "BENCH_netsim.json", netsimCommitted, slow), "speedup")

	leaky := strings.Replace(netsimCommitted,
		`{"name": "start_finish/ordered", "ns_per_op": 1663.5, "allocs_per_op": 4}`,
		`{"name": "start_finish/ordered", "ns_per_op": 1663.5, "allocs_per_op": 40}`, 1)
	wantCheck(t, mustCompare(t, "BENCH_netsim.json", netsimCommitted, leaky), "allocs-per-op")

	// Small drift stays inside the tolerances.
	drift := strings.Replace(netsimCommitted, `"start_finish_alloc_ratio": 15.5`,
		`"start_finish_alloc_ratio": 13.0`, 1)
	if out := mustCompare(t, "BENCH_netsim.json", netsimCommitted, drift); len(out) != 0 {
		t.Errorf("in-tolerance drift tripped the gate: %v", out)
	}
}

func TestSpantraceGates(t *testing.T) {
	bad := strings.Replace(spantraceCommitted, `"overhead_frac": -0.084`,
		`"overhead_frac": 0.11`, 1)
	wantCheck(t, mustCompare(t, "BENCH_spantrace.json", spantraceCommitted, bad), "overhead")

	sparse := strings.Replace(spantraceCommitted, `"spans_per_op": 518.75`,
		`"spans_per_op": 120.0`, 1)
	wantCheck(t, mustCompare(t, "BENCH_spantrace.json", spantraceCommitted, sparse), "spans-per-op")
}

// TestServeGates is the sabotage suite for BENCH_serve.json: a drifted
// probe fingerprint, a cold-vs-warm divergence, any failed session, or
// a vanished/empty execution path must each trip the gate, while the
// latency-derived fields (speedups, sessions/sec, percentiles) may
// swing freely — a 1-CPU host regenerating the artifact reports
// different ratios and must still pass.
func TestServeGates(t *testing.T) {
	drift := strings.Replace(serveCommitted, "6f1d2c3b4a596877", "deadbeefdeadbeef", 1)
	wantCheck(t, mustCompare(t, "BENCH_serve.json", serveCommitted, drift), "serve-fingerprint")

	racy := strings.Replace(serveCommitted, `"deterministic": true`, `"deterministic": false`, 1)
	wantCheck(t, mustCompare(t, "BENCH_serve.json", serveCommitted, racy), "serve-deterministic")

	failed := strings.Replace(serveCommitted, `"errors": 0`, `"errors": 2`, 1)
	wantCheck(t, mustCompare(t, "BENCH_serve.json", serveCommitted, failed), "serve-errors")

	gone := strings.Replace(serveCommitted, `"path": "warm"`, `"path": "lukewarm"`, 1)
	wantCheck(t, mustCompare(t, "BENCH_serve.json", serveCommitted, gone), "serve-path")

	hollow := strings.Replace(serveCommitted, `{"path": "cache", "sessions": 12`,
		`{"path": "cache", "sessions": 0`, 1)
	wantCheck(t, mustCompare(t, "BENCH_serve.json", serveCommitted, hollow), "serve-path")

	// Timing swings never gate: halve every rate, invert both speedups.
	slow := strings.Replace(serveCommitted, `"warm_speedup": 1.8`, `"warm_speedup": 0.4`, 1)
	slow = strings.Replace(slow, `"cache_speedup": 240.5`, `"cache_speedup": 0.9`, 1)
	slow = strings.Replace(slow, `"sessions_per_sec": 560.2`, `"sessions_per_sec": 4.1`, 1)
	slow = strings.Replace(slow, `"p99_ns": 2900000`, `"p99_ns": 990000000`, 1)
	if out := mustCompare(t, "BENCH_serve.json", serveCommitted, slow); len(out) != 0 {
		t.Errorf("latency drift should not trip the gate: %v", out)
	}
}

func TestSchemaMismatchAndErrors(t *testing.T) {
	other := strings.Replace(spantraceCommitted, "spiderfs-spantrace-bench/1",
		"spiderfs-spantrace-bench/2", 1)
	wantCheck(t, mustCompare(t, "BENCH_spantrace.json", spantraceCommitted, other), "schema")

	if _, err := Compare("x.json", []byte("{not json"), []byte("{}")); err == nil {
		t.Error("malformed committed artifact should error")
	}
	if _, err := Compare("x.json", []byte(`{"schema":"nope/9"}`), []byte(`{"schema":"nope/9"}`)); err == nil {
		t.Error("unknown schema should error")
	}
}

const ledgerCommitted = `{
  "schema": "spiderfs-ledger-bench/1",
  "cpus": 8,
  "seed": 7,
  "campaign_entries": 42,
  "campaign_anchors": 14,
  "campaign_drops": 0,
  "campaign_roots": ["aaaa000000000001", "aaaa000000000002"],
  "campaign_head": "b6e21a5d6da66887",
  "deterministic": true,
  "traced_identical": true,
  "audit_clean": true,
  "tamper_total": 5,
  "tampers_detected": 5,
  "tampers": [
    {"name": "entry-mutation", "detected": true, "class": "entry-mutation", "epoch": 5},
    {"name": "entry-deletion", "detected": true, "class": "sequence-gap", "epoch": 8},
    {"name": "chain-truncation", "detected": true, "class": "history-truncation", "epoch": 12},
    {"name": "batch-reorder", "detected": true, "class": "anchor-break", "epoch": 2},
    {"name": "forged-suffix", "detected": true, "class": "root-divergence", "epoch": 12}
  ],
  "batches": [
    {"max_batch": 64, "entries": 8192, "anchors": 128, "head": "cccc000000000064", "append_ns": 4100000, "entries_per_sec": 1998048.0},
    {"max_batch": 4096, "entries": 8192, "anchors": 3, "head": "cccc000000004096", "append_ns": 3900000, "entries_per_sec": 2100512.0}
  ]
}`

// TestLedgerGates is the sabotage suite for BENCH_ledger.json: a
// shifted root or head, a lost determinism/audit property, an
// undetected tamper class, or a drifted batch anchor head must each
// trip its gate, while wall-clock throughput drift passes.
func TestLedgerGates(t *testing.T) {
	drift := strings.Replace(ledgerCommitted, `"campaign_head": "b6e21a5d6da66887"`,
		`"campaign_head": "deadbeefdeadbeef"`, 1)
	wantCheck(t, mustCompare(t, "BENCH_ledger.json", ledgerCommitted, drift), "ledger-head")

	root := strings.Replace(ledgerCommitted, `"aaaa000000000002"`, `"aaaa00000000beef"`, 1)
	wantCheck(t, mustCompare(t, "BENCH_ledger.json", ledgerCommitted, root), "ledger-roots")

	nondet := strings.Replace(ledgerCommitted, `"deterministic": true`, `"deterministic": false`, 1)
	wantCheck(t, mustCompare(t, "BENCH_ledger.json", ledgerCommitted, nondet), "ledger-deterministic")

	traced := strings.Replace(ledgerCommitted, `"traced_identical": true`, `"traced_identical": false`, 1)
	wantCheck(t, mustCompare(t, "BENCH_ledger.json", ledgerCommitted, traced), "ledger-traced")

	dirty := strings.Replace(ledgerCommitted, `"audit_clean": true`, `"audit_clean": false`, 1)
	wantCheck(t, mustCompare(t, "BENCH_ledger.json", ledgerCommitted, dirty), "ledger-audit")

	missed := strings.Replace(ledgerCommitted, `"tampers_detected": 5`, `"tampers_detected": 4`, 1)
	missed = strings.Replace(missed,
		`{"name": "forged-suffix", "detected": true`, `{"name": "forged-suffix", "detected": false`, 1)
	wantCheck(t, mustCompare(t, "BENCH_ledger.json", ledgerCommitted, missed), "ledger-tampers")

	counts := strings.Replace(ledgerCommitted, `"campaign_entries": 42`, `"campaign_entries": 41`, 1)
	wantCheck(t, mustCompare(t, "BENCH_ledger.json", ledgerCommitted, counts), "ledger-counts")

	batch := strings.Replace(ledgerCommitted, `"head": "cccc000000004096"`,
		`"head": "cccc0000dead4096"`, 1)
	wantCheck(t, mustCompare(t, "BENCH_ledger.json", ledgerCommitted, batch), "ledger-batch")

	gone := strings.Replace(ledgerCommitted,
		`{"max_batch": 4096, "entries": 8192, "anchors": 3, "head": "cccc000000004096", "append_ns": 3900000, "entries_per_sec": 2100512.0}`,
		``, 1)
	gone = strings.Replace(gone, `, "entries_per_sec": 1998048.0},`, `, "entries_per_sec": 1998048.0}`, 1)
	wantCheck(t, mustCompare(t, "BENCH_ledger.json", ledgerCommitted, gone), "ledger-batch")

	// Wall-clock throughput drift on an otherwise identical artifact
	// passes: append_ns and entries_per_sec are recorded, not gated.
	wall := strings.Replace(ledgerCommitted, `"append_ns": 4100000`, `"append_ns": 9900000`, 1)
	wall = strings.Replace(wall, `"entries_per_sec": 1998048.0`, `"entries_per_sec": 820000.0`, 1)
	if out := mustCompare(t, "BENCH_ledger.json", ledgerCommitted, wall); len(out) != 0 {
		t.Errorf("wall-clock drift tripped the gate: %v", out)
	}
}
