package serve

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// Bench parameters: enough sessions per path for stable percentiles,
// small enough that regenerating BENCH_serve.json stays in CI budget.
const (
	benchSessions = 12
	benchSeedBase = 1000
)

// PathStat is one execution path's latency distribution.
type PathStat struct {
	Path           string  `json:"path"` // cold | warm | cache
	Sessions       int     `json:"sessions"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	P50Ns          float64 `json:"p50_ns"`
	P99Ns          float64 `json:"p99_ns"`
}

// Schema identifies the BENCH_serve.json shape.
const Schema = "spiderfs-serve-bench/1"

// Suite is the BENCH_serve.json artifact. Fingerprint, Deterministic,
// and Errors are exact-gated by internal/regress; the latency-derived
// fields (sessions/sec, percentiles, speedups) are recorded but never
// gated — a 1-CPU CI host legitimately reports different ratios.
type Suite struct {
	Schema   string `json:"schema"`
	CPUs     int    `json:"cpus"`
	Workers  int    `json:"workers"`
	PoolSize int    `json:"pool_size"`

	// Fingerprint is the probe spec's report fingerprint — identical on
	// every host, gated exactly.
	Fingerprint string `json:"fingerprint"`
	// Deterministic records that every seed produced the same
	// fingerprint on the cold path and the warm-pool path.
	Deterministic bool `json:"deterministic"`
	// Errors counts failed sessions across all phases (gated at zero).
	Errors int `json:"errors"`

	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	PoolReuses     uint64 `json:"pool_reuses"`

	// WarmSpeedup and CacheSpeedup compare p50 latencies against the
	// cold path (recorded, not gated).
	WarmSpeedup  float64 `json:"warm_speedup"`
	CacheSpeedup float64 `json:"cache_speedup"`

	Paths []PathStat `json:"paths"`
}

// benchSpec is the probe workload every phase runs (seed varied per
// session to defeat the cache where the pool is under test).
func benchSpec(seed uint64) Spec {
	return Spec{Kind: "workload", Seed: seed, Waves: 2, Flows: 128, Bytes: 8e6}
}

// runPhase submits one session per seed on svc, waits for all of them,
// and returns per-seed fingerprints (index-aligned with seeds; empty on
// failure) plus the latency distribution. Submission retries on ErrBusy
// by waiting for an earlier session — the bench drives the service at
// its own pace; shedding is exercised by the backpressure tests.
func runPhase(svc *Service, path string, seeds []uint64, clock func() int64) (PathStat, []string, int) {
	var t0 int64
	if clock != nil {
		t0 = clock()
	}
	prints := make([]string, len(seeds))
	sessions := make([]*Session, len(seeds))
	var pending []*Session
	errs := 0
	for i, seed := range seeds {
		for {
			sess, err := svc.Submit(benchSpec(seed))
			if err == nil {
				sessions[i] = sess
				pending = append(pending, sess)
				break
			}
			if len(pending) == 0 {
				// Queue full with nothing of ours outstanding: give up on
				// this seed (counted as an error below).
				errs++
				break
			}
			_, _ = pending[0].Wait()
			pending = pending[1:]
		}
	}
	var lats []float64
	for i, sess := range sessions {
		if sess == nil {
			continue
		}
		rep, err := sess.Wait()
		if err != nil {
			errs++
			continue
		}
		prints[i] = rep.Fingerprint
		lats = append(lats, float64(sess.LatencyNs()))
	}
	st := PathStat{Path: path, Sessions: len(lats)}
	if len(lats) > 0 {
		sort.Float64s(lats)
		st.P50Ns = lats[len(lats)/2]
		st.P99Ns = lats[(len(lats)*99+99)/100-1]
	}
	if clock != nil && len(lats) > 0 {
		if wall := clock() - t0; wall > 0 {
			st.SessionsPerSec = float64(len(lats)) / (float64(wall) / 1e9)
		}
	}
	return st, prints, errs
}

// RunBench measures sessions/sec and latency percentiles for the three
// execution paths — cold build, warm-pool reuse, and cache hit — and
// cross-checks that cold and warm runs of every seed agree on their
// fingerprints. clock supplies wall nanoseconds (nil leaves timing
// fields zero, as the deterministic tests do).
func RunBench(clock func() int64) Suite {
	const workers = 2
	seeds := make([]uint64, benchSessions)
	for i := range seeds {
		seeds[i] = benchSeedBase + uint64(i)
	}
	s := Suite{
		Schema: Schema, CPUs: runtime.NumCPU(),
		Workers: workers, PoolSize: workers,
	}

	// Cold: no warm retention, distinct seeds — every session builds.
	coldSvc := New(Config{Workers: workers, PoolSize: 0, QueueDepth: benchSessions, CacheSize: 0, Clock: clock})
	cold, coldPrints, coldErrs := runPhase(coldSvc, "cold", seeds, clock)
	coldSvc.Close()

	// Warm: prewarmed pool, cache disabled, same seeds — every session
	// reuses a reset instance.
	warmSvc := New(Config{Workers: workers, PoolSize: workers, QueueDepth: benchSessions, CacheSize: 0, Clock: clock})
	warmSvc.Prewarm(workers, false)
	warm, warmPrints, warmErrs := runPhase(warmSvc, "warm", seeds, clock)
	_, s.PoolReuses, _, _ = warmSvc.pool.counters()
	warmSvc.Close()

	// Cache: one priming miss, then the same spec repeatedly — hits.
	cacheSvc := New(Config{Workers: workers, PoolSize: workers, QueueDepth: benchSessions + 1, Clock: clock})
	prime := make([]uint64, 1, benchSessions+1)
	prime[0] = seeds[0]
	_, _, primeErrs := runPhase(cacheSvc, "prime", prime, clock)
	hits := make([]uint64, benchSessions)
	for i := range hits {
		hits[i] = seeds[0]
	}
	cache, _, cacheErrs := runPhase(cacheSvc, "cache", hits, clock)
	st := cacheSvc.Stats(false)
	s.CacheHits, s.CacheMisses, s.CacheEvictions = st.CacheHits, st.CacheMisses, st.CacheEvictions
	cacheSvc.Close()

	s.Errors = coldErrs + warmErrs + primeErrs + cacheErrs
	s.Deterministic = true
	for i := range seeds {
		if coldPrints[i] == "" || coldPrints[i] != warmPrints[i] {
			s.Deterministic = false
		}
	}
	s.Fingerprint = coldPrints[0]
	if warm.P50Ns > 0 {
		s.WarmSpeedup = cold.P50Ns / warm.P50Ns
	}
	if cache.P50Ns > 0 {
		s.CacheSpeedup = cold.P50Ns / cache.P50Ns
	}
	s.Paths = []PathStat{cold, warm, cache}
	return s
}

// Render formats the suite for stdout.
func (s Suite) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %14s %14s %14s\n", "path", "sessions", "sessions/s", "p50 ms", "p99 ms")
	for _, p := range s.Paths {
		fmt.Fprintf(&b, "%-8s %10d %14.1f %14.3f %14.3f\n",
			p.Path, p.Sessions, p.SessionsPerSec, p.P50Ns/1e6, p.P99Ns/1e6)
	}
	fmt.Fprintf(&b, "fingerprint %s, deterministic %v, errors %d\n", s.Fingerprint, s.Deterministic, s.Errors)
	fmt.Fprintf(&b, "cache: %d hits / %d misses / %d evictions; pool reuses: %d\n",
		s.CacheHits, s.CacheMisses, s.CacheEvictions, s.PoolReuses)
	fmt.Fprintf(&b, "speedup vs cold p50: warm %.2fx, cache %.2fx (recorded, not gated: 1-CPU hosts differ)\n",
		s.WarmSpeedup, s.CacheSpeedup)
	return b.String()
}
