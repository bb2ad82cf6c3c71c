package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"spiderfs/internal/sweep"
)

// toyCatalog is a minimal sweep catalog for tests: each replica records
// a few draws from its private stream, so the merged fingerprint is
// seed-sensitive without the cost of a full scenario sweep.
func toyCatalog() []sweep.Entry {
	return []sweep.Entry{{
		Label: "toy", Replicas: 4, Seed: 77,
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
		{Kind: "chaos", Seed: 1, Days: maxDays + 1},
		{Kind: "sweep", Seed: 1, Sweep: "toy", Replicas: maxReplicas + 1},
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
		got, err := sess.Wait()
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

// TestServicePoolReuseFingerprint drives sessions through one retained
// warm instance and demands each matches its solo-run fingerprint.
func TestServicePoolReuseFingerprint(t *testing.T) {
	svc := New(Config{Workers: 1, PoolSize: 1, QueueDepth: 8, CacheSize: -1})
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
		rep, err := sess.Wait()
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

// TestServiceCacheHit resubmits an identical spec and expects the
// second session to be answered from the cache with the same report.
func TestServiceCacheHit(t *testing.T) {
	svc := New(Config{Workers: 1, PoolSize: 1, QueueDepth: 8, CacheSize: 4})
	defer svc.Close()
	spec := workloadSpec(55)
	first, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := first.Wait()
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.Submit(Spec{Kind: "workload", Seed: 55, Waves: 2, Flows: 64, Bytes: 4e6})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := second.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("cache hit should hand out the shared report pointer")
	}
	if !second.Snapshot().Cached || first.Snapshot().Cached {
		t.Fatal("cached flags wrong way around")
	}
	st := svc.Stats(false)
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache counters: %d hits %d misses, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newCache(2)
	a, b, d := &Report{Kind: "a"}, &Report{Kind: "b"}, &Report{Kind: "d"}
	c.put("a", a)
	c.put("b", b)
	if _, ok := c.get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a should be cached")
	}
	c.put("d", d)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived eviction")
	}
	if c.evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.evictions)
	}
}

// TestServiceBackpressure fills the admission queue behind a gated
// worker and expects the overflowing submit to be shed immediately with
// a Retry-After hint — never queued, never blocked. The test gate holds
// the worker between pickup and execution so the queue state at each
// submit is exact, not a race against a fast worker.
func TestServiceBackpressure(t *testing.T) {
	svc := New(Config{Workers: 1, PoolSize: 1, QueueDepth: 1, CacheSize: -1})
	gate := make(chan struct{})
	svc.testGate = gate
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
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	passGate()
	if _, err := queued.Wait(); err != nil {
		t.Fatal(err)
	}
	retry, err := svc.Submit(workloadSpec(902))
	if err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	passGate()
	if _, err := retry.Wait(); err != nil {
		t.Fatal(err)
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

	svc := New(Config{Workers: 4, PoolSize: 3, QueueDepth: total, CacheSize: -1})
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
				rep, err := sessions[i].Wait()
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

// TestRunBenchSmoke exercises the bench harness: every path runs and
// the artifact passes its own Check.
func TestRunBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke is not short")
	}
	s := RunBench()
	if s.Schema != "spiderfs-serve-bench/1" {
		t.Fatalf("schema %q", s.Schema)
	}
	if !s.Deterministic {
		t.Fatal("cold and warm fingerprints diverged")
	}
	if s.Errors != 0 {
		t.Fatalf("errors = %d", s.Errors)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if s.Fingerprint == "" {
		t.Fatal("empty probe fingerprint")
	}
	if s.CacheHits == 0 || s.PoolReuses == 0 {
		t.Fatalf("bench paths not exercised: hits %d reuses %d", s.CacheHits, s.PoolReuses)
	}
	if len(s.Paths) != 3 {
		t.Fatalf("paths = %d, want 3", len(s.Paths))
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
	if s.Render() == "" {
		t.Fatal("empty render")
	}
}

// TestServeGates is the sabotage table for the BENCH_serve.json
// invariants: a cold-vs-warm divergence or any failed session must fail
// Check on its own, with no committed copy to compare against.
func TestServeGates(t *testing.T) {
	good := Suite{Schema: Schema, PoolSize: 2, Fingerprint: "6f1d2c3b4a596877", Deterministic: true,
		Paths: []PathStat{{"cold", 12}, {"warm", 12}, {"cache", 12}}}
	for _, c := range []struct {
		name   string
		mutate func(*Suite)
		want   string
	}{
		{"clean", func(*Suite) {}, ""},
		{"racy", func(s *Suite) { s.Deterministic = false }, "diverged"},
		{"failed", func(s *Suite) { s.Errors = 2 }, "2 sessions failed"},
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
