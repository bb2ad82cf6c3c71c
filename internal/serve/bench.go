package serve

import (
	"errors"
	"fmt"
	"strings"
)

// Bench parameters: enough sessions per path to exercise pool reuse and
// cache hits, small enough that regenerating BENCH_serve.json stays in
// CI budget.
const (
	benchSessions = 12
	benchSeedBase = 1000
)

// PathStat counts the sessions one execution path completed.
type PathStat struct {
	Path     string `json:"path"` // cold | warm | cache
	Sessions int    `json:"sessions"`
}

// Schema identifies the BENCH_serve.json shape.
const Schema = "spiderfs-serve-bench/1"

// Suite is the BENCH_serve.json artifact. Every field is deterministic;
// host latency of the three paths is the benchmark's serve.run_ms.*, not
// this artifact's.
type Suite struct {
	Schema   string `json:"schema"`
	PoolSize int    `json:"pool_size"`

	// Fingerprint is the probe spec's report fingerprint — identical on
	// every host.
	Fingerprint string `json:"fingerprint"`
	// Deterministic records that every seed produced the same
	// fingerprint on the cold path and the warm-pool path.
	Deterministic bool `json:"deterministic"`
	// Errors counts failed sessions across all phases.
	Errors int `json:"errors"`

	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	PoolReuses     uint64 `json:"pool_reuses"`

	Paths []PathStat `json:"paths"`
}

// Check reports every broken invariant: cold and warm-pool runs must
// agree on every seed, and no session may fail.
func (s Suite) Check() error {
	var errs []error
	if !s.Deterministic {
		errs = append(errs, errors.New("cold and warm-pool runs diverged (per-seed session fingerprints differ)"))
	}
	if s.Errors > 0 {
		errs = append(errs, fmt.Errorf("%d sessions failed", s.Errors))
	}
	return errors.Join(errs...)
}

// benchSpec is the probe workload every phase runs (seed varied per
// session to defeat the cache where the pool is under test).
func benchSpec(seed uint64) Spec {
	return Spec{Kind: "workload", Seed: seed, Waves: 2, Flows: 128, Bytes: 8e6}
}

// runPhase submits one session per seed on svc, waits for all of them,
// and returns per-seed fingerprints (index-aligned with seeds; empty on
// failure) plus the completed-session count. Submission retries on
// ErrBusy by waiting for an earlier session — the bench drives the
// service at its own pace; shedding is exercised by the backpressure
// tests.
func runPhase(svc *Service, path string, seeds []uint64) (PathStat, []string, int) {
	st := PathStat{Path: path}
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
		st.Sessions++
	}
	return st, prints, errs
}

// RunBench drives the three execution paths — cold build, warm-pool
// reuse, and cache hit — and cross-checks that cold and warm runs of
// every seed agree on their fingerprints.
func RunBench() Suite {
	const workers = 2
	seeds := make([]uint64, benchSessions)
	for i := range seeds {
		seeds[i] = benchSeedBase + uint64(i)
	}
	s := Suite{Schema: Schema, PoolSize: workers}

	// Cold: no warm retention, distinct seeds — every session builds.
	coldSvc := New(Config{Workers: workers, PoolSize: 0, QueueDepth: benchSessions, CacheSize: 0})
	cold, coldPrints, coldErrs := runPhase(coldSvc, "cold", seeds)
	coldSvc.Close()

	// Warm: prewarmed pool, cache disabled, same seeds — every session
	// reuses a reset instance.
	warmSvc := New(Config{Workers: workers, PoolSize: workers, QueueDepth: benchSessions, CacheSize: 0})
	warmSvc.Prewarm(workers, false)
	warm, warmPrints, warmErrs := runPhase(warmSvc, "warm", seeds)
	_, s.PoolReuses, _, _ = warmSvc.pool.counters()
	warmSvc.Close()

	// Cache: one priming miss, then the same spec repeatedly — hits.
	cacheSvc := New(Config{Workers: workers, PoolSize: workers, QueueDepth: benchSessions + 1})
	prime := make([]uint64, 1, benchSessions+1)
	prime[0] = seeds[0]
	_, _, primeErrs := runPhase(cacheSvc, "prime", prime)
	hits := make([]uint64, benchSessions)
	for i := range hits {
		hits[i] = seeds[0]
	}
	cache, _, cacheErrs := runPhase(cacheSvc, "cache", hits)
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
	s.Paths = []PathStat{cold, warm, cache}
	return s
}

// Render formats the suite for stdout.
func (s Suite) Render() string {
	var b strings.Builder
	for _, p := range s.Paths {
		fmt.Fprintf(&b, "%-8s %3d sessions\n", p.Path, p.Sessions)
	}
	fmt.Fprintf(&b, "fingerprint %s, deterministic %v, errors %d\n", s.Fingerprint, s.Deterministic, s.Errors)
	fmt.Fprintf(&b, "cache: %d hits / %d misses / %d evictions; pool reuses: %d\n",
		s.CacheHits, s.CacheMisses, s.CacheEvictions, s.PoolReuses)
	return b.String()
}
