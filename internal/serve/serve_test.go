package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spiderfs/internal/chaos"
	"spiderfs/internal/sweep"
)

// wait blocks until the session is terminal and returns its report (nil
// when failed). Sessions always terminate (the worker pool drains the
// admission queue and every scenario run is finite), so a test that
// waits is bounded by execution, never by other tenants' streams.
func (s *Session) wait() (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.state != StateDone && s.state != StateFailed {
		s.cond.Wait()
	}
	if s.state == StateFailed {
		return nil, errors.New("serve: session failed: " + s.errmsg)
	}
	return s.report, nil
}

// toyCatalog is a minimal sweep catalog for tests: each replica records
// a few draws from its private stream, so the merged fingerprint is
// seed-sensitive without the cost of a full scenario sweep.
func toyCatalog() []sweep.Entry {
	return []sweep.Entry{{
		Label: "toy", Replicas: 4,
		Body: func(r *sweep.Rep) error {
			r.Record("draw", float64(r.Src.Intn(1000)))
			r.Record("index", float64(r.Index))
			return nil
		},
	}}
}

func workloadSpec(seed uint64) Spec {
	return Spec{Kind: "workload", Seed: seed, Waves: 2, Flows: 64, Bytes: 4e6}
}

func TestSpecNormalizeAndKey(t *testing.T) {
	s := Spec{Kind: "workload", Seed: 9, Days: 3, Sweep: "junk"}
	if err := s.Normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if s.Waves != defaultWaves || s.Flows != defaultFlows || s.Bytes != defaultBytes {
		t.Fatalf("defaults not filled: %+v", s)
	}
	if s.Days != 0 || s.Sweep != "" {
		t.Fatalf("foreign-kind fields not cleared: %+v", s)
	}
	want := fmt.Sprintf("workload/seed=9/full=false/waves=%d/flows=%d/bytes=%g",
		defaultWaves, defaultFlows, defaultBytes)
	if s.Key() != want {
		t.Fatalf("key = %q, want %q", s.Key(), want)
	}

	// Two submissions that normalize identically share one key.
	a, b := Spec{Kind: "chaos", Seed: 4}, Spec{Kind: "chaos", Seed: 4, Waves: 7}
	if a.Normalize() != nil || b.Normalize() != nil {
		t.Fatal("chaos normalize failed")
	}
	if a.Key() != b.Key() {
		t.Fatalf("equivalent specs got distinct keys %q vs %q", a.Key(), b.Key())
	}

	for _, bad := range []Spec{
		{Kind: "nope", Seed: 1},
		{Kind: "chaos", Seed: 1, Days: -1},
		{Kind: "sweep", Seed: 1},
		{Kind: "sweep", Seed: 1, Sweep: "a/b"},
		{Kind: "sweep", Seed: 1, Sweep: "toy", Replicas: -2},
		{Kind: "workload", Seed: 1, Waves: maxWaves + 1},
		{Kind: "workload", Seed: 1, Flows: maxFlows + 1},
		{Kind: "workload", Seed: 1, Bytes: 2 * maxBytes},
		{Kind: "chaos", Seed: 1, Days: chaos.MaxDays + 1},
		{Kind: "sweep", Seed: 1, Sweep: "toy", Replicas: sweep.MaxReplicas + 1},
	} {
		bad := bad
		if err := bad.Normalize(); err == nil {
			t.Errorf("spec %+v: expected a normalize error", bad)
		}
	}
	if _, err := RunSolo(Spec{Kind: "workload", Seed: 1, Flows: maxFlows + 1}, nil); err == nil {
		t.Error("RunSolo accepted an over-cap spec")
	}
}

// TestRunSoloKindsDeterministic runs every kind twice and demands
// byte-identical reports — the reference half of the service contract.
func TestRunSoloKindsDeterministic(t *testing.T) {
	cat := toyCatalog()
	for _, spec := range []Spec{
		workloadSpec(11),
		{Kind: "chaos", Seed: 11},
		{Kind: "sweep", Seed: 11, Sweep: "toy"},
	} {
		r1, err := RunSolo(spec, cat)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		r2, err := RunSolo(spec, cat)
		if err != nil {
			t.Fatalf("%s rerun: %v", spec.Kind, err)
		}
		j1, err1 := r1.JSON()
		j2, err2 := r2.JSON()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: json: %v %v", spec.Kind, err1, err2)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("%s: solo reruns diverge:\n%s\nvs\n%s", spec.Kind, j1, j2)
		}
		if r1.Fingerprint == "" {
			t.Fatalf("%s: empty fingerprint", spec.Kind)
		}
	}

	if _, err := RunSolo(Spec{Kind: "sweep", Seed: 1, Sweep: "missing"}, cat); err == nil {
		t.Fatal("unknown sweep label should fail")
	}
}

// TestServiceKindsMatchSolo submits one spec of every kind through the
// full service path and compares the report bytes against RunSolo.
func TestServiceKindsMatchSolo(t *testing.T) {
	cat := toyCatalog()
	svc := New(Config{Workers: 2, PoolSize: 2, QueueDepth: 8, Sweeps: cat})
	defer svc.Close()
	for _, spec := range []Spec{
		workloadSpec(21),
		{Kind: "chaos", Seed: 21},
		{Kind: "sweep", Seed: 21, Sweep: "toy"},
	} {
		want, err := RunSolo(spec, cat)
		if err != nil {
			t.Fatalf("%s solo: %v", spec.Kind, err)
		}
		sess, err := svc.Submit(spec)
		if err != nil {
			t.Fatalf("%s submit: %v", spec.Kind, err)
		}
		got, err := sess.wait()
		if err != nil {
			t.Fatalf("%s session: %v", spec.Kind, err)
		}
		wj, _ := want.JSON()
		gj, _ := got.JSON()
		if !bytes.Equal(wj, gj) {
			t.Fatalf("%s: service report differs from solo:\n%s\nvs\n%s", spec.Kind, gj, wj)
		}
	}
}

// TestSweepSessionFollowsSpecSeed pins where a sweep session's seed
// comes from: the spec, never the service. Two seeds must give two
// samples, and two services seeded differently must agree on one spec.
func TestSweepSessionFollowsSpecSeed(t *testing.T) {
	cat := toyCatalog()
	fp := func(svc *Service, seed uint64) string {
		t.Helper()
		sess, err := svc.Submit(Spec{Kind: "sweep", Seed: seed, Sweep: "toy"})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.wait()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Fingerprint
	}
	a := New(Config{Seed: 1, Workers: 1, Sweeps: cat})
	defer a.Close()
	b := New(Config{Seed: 2, Workers: 1, Sweeps: cat})
	defer b.Close()
	if f11, f12 := fp(a, 11), fp(a, 12); f11 == f12 {
		t.Fatalf("seeds 11 and 12 both gave fingerprint %s: the session ignored the spec seed", f11)
	}
	if fa, fb := fp(a, 11), fp(b, 11); fa != fb {
		t.Fatalf("services seeded 1 and 2 gave %s and %s for one spec", fa, fb)
	}
}

// TestServicePoolReuseFingerprint drives sessions through one retained
// warm instance and demands each matches its solo-run fingerprint.
func TestServicePoolReuseFingerprint(t *testing.T) {
	svc := New(Config{Workers: 1, PoolSize: 1, QueueDepth: 8, CacheSize: 0})
	defer svc.Close()
	for i, seed := range []uint64{301, 302, 303, 304} {
		spec := workloadSpec(seed)
		want, err := RunSolo(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.wait()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Fingerprint != want.Fingerprint {
			t.Fatalf("seed %d: pooled fingerprint %s != solo %s", seed, rep.Fingerprint, want.Fingerprint)
		}
		snap := sess.Snapshot()
		if wantWarm := i > 0; snap.Warm != wantWarm {
			t.Fatalf("session %d: warm = %v, want %v", i, snap.Warm, wantWarm)
		}
	}
	st := svc.Stats(false)
	if st.PoolReuses != 3 || st.PoolBuilds != 1 {
		t.Fatalf("pool counters: builds %d reuses %d, want 1/3", st.PoolBuilds, st.PoolReuses)
	}
	if st.CacheHits != 0 {
		t.Fatalf("cache disabled but %d hits", st.CacheHits)
	}
}

// probeSpec is the pinned service probe workload; probeSeeds are the
// seeds it runs at and probeFingerprint its report at the first.
func probeSpec(seed uint64) Spec {
	return Spec{Kind: "workload", Seed: seed, Waves: 2, Flows: 128, Bytes: 8e6}
}

var probeSeeds = []uint64{1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009, 1010, 1011}

const probeFingerprint = "70b6e974b7490193"

// runProbes submits one probe session per seed, then waits for them
// all, and returns their fingerprints in seed order.
func runProbes(t *testing.T, svc *Service, seeds []uint64) []string {
	t.Helper()
	sessions := make([]*Session, len(seeds))
	for i, seed := range seeds {
		sess, err := svc.Submit(probeSpec(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sessions[i] = sess
	}
	prints := make([]string, len(seeds))
	for i, sess := range sessions {
		rep, err := sess.wait()
		if err != nil {
			t.Fatalf("seed %d: %v", seeds[i], err)
		}
		prints[i] = rep.Fingerprint
	}
	return prints
}

// TestServiceColdWarmDeterministic runs the probe at every probe seed
// on two workers twice: cold, building every instance, and through a
// prewarmed two-instance pool with the cache off. Every seed must give
// the same fingerprint on both paths, the first the pinned one, and
// every warm session must reuse a pooled instance.
func TestServiceColdWarmDeterministic(t *testing.T) {
	n := len(probeSeeds)
	coldSvc := New(Config{Workers: 2, PoolSize: 0, QueueDepth: n, CacheSize: 0})
	defer coldSvc.Close()
	cold := runProbes(t, coldSvc, probeSeeds)

	warmSvc := New(Config{Workers: 2, PoolSize: 2, QueueDepth: n, CacheSize: 0})
	defer warmSvc.Close()
	warmSvc.Prewarm(2, false)
	warm := runProbes(t, warmSvc, probeSeeds)

	if cold[0] != probeFingerprint {
		t.Errorf("seed %d: fingerprint %s, want %s", probeSeeds[0], cold[0], probeFingerprint)
	}
	for i := range probeSeeds {
		if warm[i] != cold[i] {
			t.Errorf("seed %d: warm fingerprint %s != cold %s", probeSeeds[i], warm[i], cold[i])
		}
	}
	if st := warmSvc.Stats(false); st.Completed != uint64(n) || st.Failed != 0 || st.PoolReuses != uint64(n) {
		t.Errorf("warm path: %d completed, %d failed, %d pool reuses; want %d, 0, %d",
			st.Completed, st.Failed, st.PoolReuses, n, n)
	}
}

// TestServiceCacheHit runs the probe once, then resubmits the identical
// spec once per probe seed: every resubmission must be answered from
// the cache with the shared, pinned report.
func TestServiceCacheHit(t *testing.T) {
	n := len(probeSeeds)
	svc := New(Config{Workers: 2, PoolSize: 2, QueueDepth: n + 1, CacheSize: 128})
	defer svc.Close()
	first, err := svc.Submit(probeSpec(probeSeeds[0]))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := first.wait()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint != probeFingerprint {
		t.Fatalf("fingerprint %s, want %s", r1.Fingerprint, probeFingerprint)
	}
	for range n {
		again, err := svc.Submit(probeSpec(probeSeeds[0]))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := again.wait()
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatal("cache hit should hand out the shared report pointer")
		}
		if !again.Snapshot().Cached {
			t.Fatal("resubmitted spec not served from the cache")
		}
	}
	if first.Snapshot().Cached {
		t.Fatal("first run of a spec marked cached")
	}
	st := svc.Stats(false)
	if st.CacheHits != uint64(n) || st.CacheMisses != 1 || st.CacheEvictions != 0 || st.Failed != 0 {
		t.Fatalf("cache counters: %d hits %d misses %d evictions %d failed, want %d/1/0/0",
			st.CacheHits, st.CacheMisses, st.CacheEvictions, st.Failed, n)
	}
}

// TestServiceCacheDisabled: CacheSize 0 disables the cache, as its doc
// says, so a resubmitted spec runs again.
func TestServiceCacheDisabled(t *testing.T) {
	svc := New(Config{Workers: 1, PoolSize: 1, QueueDepth: 8, CacheSize: 0})
	defer svc.Close()
	for range 2 {
		sess, err := svc.Submit(workloadSpec(55))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.wait(); err != nil {
			t.Fatal(err)
		}
		if sess.Snapshot().Cached {
			t.Fatal("resubmitted spec served from a disabled cache")
		}
	}
}

// TestCacheEviction drives a two-entry cache: x is put at xCost and
// y at cost 1, x is read back, then cheap (cost 1) reports arrive.
// Equal costs evict in exact LRU order; a costlier x outlives many
// cheaper insertions, but not forever, because each eviction raises the
// floor that new credits start from. At xCost 1,000 the floor reaches
// x's credit on the 1,000th cheap put, which then evicts x, the older
// of the two tied entries.
func TestCacheEviction(t *testing.T) {
	const size = 2
	for _, tc := range []struct {
		name      string
		xCost     int64
		cheap     int
		wantX     bool
		evictions uint64
	}{
		{"equal costs evict least recently used", 1, 1, true, 1},
		{"costly entry survives 10x capacity of cheap puts", 1000, 10 * size, true, 10 * size},
		{"raised floor evicts the costly entry", 1000, 1000, false, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCache(size)
			x := &Report{Kind: "x"}
			c.put("x", x, tc.xCost)
			c.put("y", &Report{Kind: "y"}, 1)
			if got, ok := c.get("x"); !ok || got != x { // refresh x: y is now LRU
				t.Fatal("x should be cached")
			}
			for i := range tc.cheap {
				c.put(fmt.Sprint("cheap", i), &Report{}, 1)
			}
			if c.evictions != tc.evictions {
				t.Fatalf("evictions = %d, want %d", c.evictions, tc.evictions)
			}
			if _, ok := c.get("y"); ok {
				t.Fatal("y should have been evicted first")
			}
			if _, ok := c.get("x"); ok != tc.wantX {
				t.Fatalf("x cached = %v, want %v", ok, tc.wantX)
			}
		})
	}
}

// TestServiceCacheKeepsCostlyReports wires the cache's costs to
// Config.Clock: the test gate advances the clock by 1,000 for one spec
// and by 1 for every other, so that spec's report outlives 3x the
// cache's capacity of cheaper fresh specs and its resubmission is a hit.
func TestServiceCacheKeepsCostlyReports(t *testing.T) {
	const size = 4
	var now atomic.Int64
	costly := workloadSpec(600)
	svc := New(Config{Workers: 1, PoolSize: 1, CacheSize: size, Clock: now.Load})
	svc.testGate = func(sess *Session) {
		if sess.Spec == costly {
			now.Add(1000)
		} else {
			now.Add(1)
		}
	}
	defer svc.Close()
	run := func(spec Spec) Snapshot {
		sess, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.wait(); err != nil {
			t.Fatal(err)
		}
		return sess.Snapshot()
	}
	if run(costly).Cached {
		t.Fatal("first run of the costly spec marked cached")
	}
	for i := range 3 * size {
		run(workloadSpec(uint64(601 + i)))
	}
	if !run(costly).Cached {
		t.Fatalf("costly spec evicted by %d cheaper ones", 3*size)
	}
	// 1+3*size reports through size slots: the rest were evicted.
	if st := svc.Stats(false); st.CacheHits != 1 || st.CacheEvictions != 2*size+1 {
		t.Fatalf("cache counters: %d hits, %d evictions; want 1, %d", st.CacheHits, st.CacheEvictions, 2*size+1)
	}
}

// TestServiceBackpressure fills the admission queue behind a gated
// worker and expects the overflowing submit to be shed immediately with
// a Retry-After hint — never queued, never blocked. The test gate holds
// the worker between pickup and execution so the queue state at each
// submit is exact, not a race against a fast worker.
func TestServiceBackpressure(t *testing.T) {
	svc := New(Config{Workers: 1, PoolSize: 1, QueueDepth: 1, CacheSize: 0})
	gate := make(chan struct{})
	svc.testGate = func(*Session) { gate <- struct{}{}; <-gate }
	defer svc.Close()
	// passGate lets the parked worker run one session: consume its
	// pickup announcement, then release it.
	passGate := func() { <-gate; gate <- struct{}{} }

	blocker, err := svc.Submit(workloadSpec(900))
	if err != nil {
		t.Fatal(err)
	}
	<-gate // worker owns the blocker and is parked: the queue slot is free
	queued, err := svc.Submit(workloadSpec(901))
	if err != nil {
		t.Fatalf("queue-filling submit: %v", err)
	}
	_, err = svc.Submit(workloadSpec(902))
	busy, ok := err.(ErrBusy)
	if !ok {
		t.Fatalf("overflow submit: got %v, want ErrBusy", err)
	}
	if busy.RetryAfter < 1 {
		t.Fatalf("RetryAfter = %d, want >= 1", busy.RetryAfter)
	}
	st := svc.Stats(false)
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}

	// The shed spec left no residue: both admitted sessions complete and
	// the retried submit after drain is admitted.
	gate <- struct{}{} // release the blocker
	if _, err := blocker.wait(); err != nil {
		t.Fatal(err)
	}
	passGate()
	if _, err := queued.wait(); err != nil {
		t.Fatal(err)
	}
	retry, err := svc.Submit(workloadSpec(902))
	if err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	passGate()
	if _, err := retry.wait(); err != nil {
		t.Fatal(err)
	}
}

// TestServicePanicFailsSession: a panic while a worker holds a session
// fails that session with a "panic" error and leaves the worker
// serving. With one worker, the sessions after it can only run if the
// panic was recovered.
func TestServicePanicFailsSession(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8, CacheSize: 4, Sweeps: toyCatalog()})
	svc.testGate = func(sess *Session) {
		if sess.ID == "s-000001" {
			panic("gate refused " + sess.ID)
		}
	}
	defer svc.Close()
	submit := func(seed uint64) *Session {
		t.Helper()
		sess, err := svc.Submit(Spec{Kind: "sweep", Sweep: "toy", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}

	first, second := submit(1), submit(2)
	if _, err := first.wait(); err == nil || !strings.Contains(err.Error(), "panic: gate refused s-000001") {
		t.Fatalf("panicking session: wait() error %v, want the panic", err)
	}
	if snap := first.Snapshot(); snap.State != StateFailed || !strings.Contains(snap.Error, "panic") {
		t.Fatalf("panicking session is %s with error %q, want failed with a panic", snap.State, snap.Error)
	}
	if _, err := second.wait(); err != nil {
		t.Fatalf("session after the panic: %v", err)
	}
	if st := svc.Stats(false); st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("stats: %d failed, %d completed; want 1 and 1", st.Failed, st.Completed)
	}
	if _, err := submit(3).wait(); err != nil {
		t.Fatalf("later submit: %v", err)
	}
}

// TestServeConcurrentSessionsDeterministic is the tenancy contract: 64
// sessions submitted from 8 goroutines onto a small warm pool — so
// instances are reused across tenants while sessions interleave — with
// concurrent progress polls, must each reproduce the fingerprint of a
// serial solo run of the same spec.
func TestServeConcurrentSessionsDeterministic(t *testing.T) {
	const (
		goroutines = 8
		perG       = 8
		total      = goroutines * perG
	)
	specs := make([]Spec, total)
	want := make([]string, total)
	for i := range specs {
		specs[i] = workloadSpec(5000 + uint64(i))
		rep, err := RunSolo(specs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep.Fingerprint
	}

	svc := New(Config{Workers: 4, PoolSize: 3, QueueDepth: total, CacheSize: 0})
	defer svc.Close()

	// Phase 1: all 64 sessions submitted before any result is consumed,
	// so the full set is in flight on 4 workers and 3 warm instances.
	sessions := make([]*Session, total)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				i := g*perG + k
				sess, err := svc.Submit(specs[i])
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				sessions[i] = sess
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Phase 2: each goroutine polls its sessions' event streams while
	// they execute — interleaved observation must not perturb results.
	got := make([]string, total)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				i := g*perG + k
				seq := 0
				for {
					tail, terminal := sessions[i].EventsSince(seq)
					seq += len(tail)
					if terminal {
						break
					}
				}
				rep, err := sessions[i].wait()
				if err != nil {
					t.Errorf("session %d: %v", i, err)
					return
				}
				got[i] = rep.Fingerprint
			}
		}(g)
	}
	wg.Wait()

	for i := range want {
		if got[i] != want[i] {
			t.Errorf("session %d (seed %d): fingerprint %s != solo %s",
				i, specs[i].Seed, got[i], want[i])
		}
	}
	st := svc.Stats(false)
	if st.Completed != total {
		t.Fatalf("completed = %d, want %d", st.Completed, total)
	}
	if st.PoolReuses == 0 {
		t.Fatal("no warm reuse under concurrent load — pool inert")
	}
}
