package serve

import (
	"fmt"
	"slices"
	"sync"

	"spiderfs/internal/rng"
	"spiderfs/internal/sweep"
)

// Config declares a Service. Zero values take the documented defaults.
type Config struct {
	// Seed roots the service-plane random streams (session tokens).
	// Model randomness never derives from it — sessions draw from their
	// spec's own seed, which is what makes results reproduce solo runs.
	Seed uint64
	// Workers is the number of concurrent session executors (default 2).
	Workers int
	// QueueDepth bounds the admission queue; a submit past this depth is
	// shed with ErrBusy rather than queued (default 64).
	QueueDepth int
	// PoolSize is the number of warm instances retained per fabric shape
	// (0 disables warm reuse — every workload runs cold).
	PoolSize int
	// CacheSize bounds the result cache in entries (0 disables caching).
	// Past capacity the cache evicts cost-aware (GreedyDual): an entry's
	// cost is its run's latency on Clock, and the cheapest to recompute
	// goes first, aged by a floor that each eviction raises so that no
	// entry stays forever. Without a Clock every cost is 0 and the order
	// is least recently used.
	CacheSize int
	// Sweeps is the catalog "sweep"-kind specs may name (typically
	// experiment.Sweeps(); nil leaves the kind unavailable). Submit
	// refuses a sweep spec whose label is not in it. A sweep session
	// runs its entry at the spec's seed.
	Sweeps []sweep.Entry
	// Clock, when set, timestamps session latencies (wall nanoseconds),
	// which are also the result cache's costs. The simulation plane never
	// reads it — leaving it nil (as tests do) only zeroes the recorded
	// latencies and makes the cache least recently used.
	Clock func() int64
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
}

// ErrBusy is returned by Submit when the admission queue is full. The
// API layer translates it to 429 with a Retry-After of the hinted
// seconds; the hint is the queue depth over the worker count — how
// long the backlog takes to drain at one session-second per session —
// computed from counters, never from wall clock.
type ErrBusy struct{ RetryAfter int }

func (e ErrBusy) Error() string {
	return fmt.Sprintf("serve: admission queue full, retry after %ds", e.RetryAfter)
}

// retainFinished is how many finished (done or failed) sessions stay
// reachable. A finished session leaves the service once this many newer
// sessions have finished; its report stays in the (spec, seed) result
// cache, so resubmitting the spec answers it again. The bound counts
// completions and never reads a clock.
const retainFinished = 1024

// Service executes scenario sessions from a bounded admission queue on
// a fixed worker pool, reusing warm engine/fabric instances and
// answering repeated (spec, seed) submissions from the result cache. It
// keeps every queued and running session and the newest retainFinished
// finished ones, so what it holds does not grow with the number of
// sessions served.
type Service struct {
	cfg   Config
	pool  *pool
	queue chan *Session
	wg    sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	sessions map[string]*Session // the retained sessions, by ID
	// admitted lists the retained sessions in admission order. A retired
	// session stays in it, skipped, until the retired ones are half of
	// it; holes counts them.
	admitted []*Session
	holes    int
	nextID   uint64
	cache    *cache
	// finished is a ring of the retained finished sessions in completion
	// order; finishedNext is the slot the next completion takes, whose
	// previous occupant then retires.
	finished     [retainFinished]*Session
	finishedNext int

	submitted uint64
	rejected  uint64
	completed uint64
	failed    uint64

	// testGate, when set (by tests, before the first Submit), is called
	// by a worker with each session it picks up, before running it. A
	// test blocks in it to hold a session at pickup — the deterministic
	// seam the backpressure tests use to hold the queue full while they
	// overflow it. Nil in production.
	testGate func(*Session)
}

// New starts a service. Close releases its workers.
func New(cfg Config) *Service {
	cfg.fill()
	s := &Service{
		cfg:      cfg,
		pool:     newPool(cfg.PoolSize),
		queue:    make(chan *Session, cfg.QueueDepth),
		sessions: make(map[string]*Session),
		cache:    newCache(cfg.CacheSize),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops admission, drains queued sessions, and waits for the
// workers to exit. Safe to call once.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
}

// Prewarm builds n warm instances of the given shape into the pool so
// the first sessions already reuse instead of building.
func (s *Service) Prewarm(n int, full bool) { s.pool.prewarm(n, full) }

// Submit validates and admits a spec; a sweep spec must name an entry
// of Config.Sweeps. It never blocks: when the admission queue is full
// the spec is shed with ErrBusy carrying the Retry-After hint. The
// returned session is already registered and observable via
// Session/EventsSince.
func (s *Service) Submit(spec Spec) (*Session, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if spec.Kind == "sweep" {
		if _, err := catalogEntry(s.cfg.Sweeps, spec.Sweep); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: service closed")
	}
	s.nextID++
	id := fmt.Sprintf("s-%06d", s.nextID)
	// Per-session service-plane rng isolation: the token stream is split
	// off a fresh source by session ID, so no session's draws perturb
	// another's and the stream is reproducible from (Seed, ID) alone.
	token := rng.New(s.cfg.Seed).Split("serve/" + id).Uint64()
	sess := newSession(id, token, spec)
	select {
	case s.queue <- sess:
		s.submitted++
		s.sessions[id] = sess
		s.admitted = append(s.admitted, sess)
		s.mu.Unlock()
		return sess, nil
	default:
		s.rejected++
		s.nextID-- // shed sessions don't consume IDs
		retry := max(1, (s.cfg.QueueDepth+s.cfg.Workers-1)/s.cfg.Workers)
		s.mu.Unlock()
		return nil, ErrBusy{RetryAfter: retry}
	}
}

// Session looks a session up by ID. A finished session is found until
// retainFinished newer sessions have finished; after that, like an
// unknown ID, it is not.
func (s *Service) Session(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// worker drains the admission queue. Workers are the only goroutines
// the service launches; they share nothing but the mutex-guarded
// service state and each session's own lock.
func (s *Service) worker() {
	defer s.wg.Done()
	for sess := range s.queue {
		s.run(sess)
	}
}

// run executes one session: result cache first, then the warm pool for
// workloads, cold execution otherwise. A panic anywhere in it, the test
// gate included, fails the session with "panic: <value>" instead of
// killing the process; a workload that panics never releases its
// pooled instance, so a half-run engine is dropped, not shelved.
func (s *Service) run(sess *Session) {
	clock := s.cfg.Clock
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	t0 := clock()
	elapsed := func() int64 { return clock() - t0 }
	defer func() {
		if v := recover(); v != nil {
			s.fail(sess, fmt.Sprintf("panic: %v", v), elapsed())
		}
	}()
	if s.testGate != nil {
		s.testGate(sess)
	}

	key := sess.Spec.Key()
	s.mu.Lock()
	rep, hit := s.cache.get(key)
	s.mu.Unlock()
	if hit {
		sess.start("cache")
		s.finish(sess, rep, true, false, elapsed())
		return
	}

	var err error
	warm := false
	if sess.Spec.Kind == "workload" {
		var inst *instance
		inst, warm = s.pool.acquire(sess.Spec.Full)
		if warm {
			sess.start("warm")
		} else {
			sess.start("cold")
		}
		rep = runWorkload(inst.eng, inst.fab, sess.Spec, sess.note)
		s.pool.release(inst)
	} else {
		sess.start("cold")
		rep, err = RunSolo(sess.Spec, s.cfg.Sweeps)
	}
	lat := elapsed()
	if err != nil {
		s.fail(sess, err.Error(), lat)
		return
	}
	s.mu.Lock()
	s.cache.put(key, rep, lat)
	s.mu.Unlock()
	s.finish(sess, rep, false, warm, lat)
}

func (s *Service) finish(sess *Session, rep *Report, cached, warm bool, latNs int64) {
	s.mu.Lock()
	s.completed++
	sess.finish(rep, cached, warm, latNs)
	s.retire(sess)
	s.mu.Unlock()
}

// fail ends a session failed with msg, counted and retired like finish.
func (s *Service) fail(sess *Session, msg string, latNs int64) {
	s.mu.Lock()
	s.failed++
	sess.fail(msg, latNs)
	s.retire(sess)
	s.mu.Unlock()
}

// retire files a session that has just finished among the retained
// finished sessions, and drops the one that has now had retainFinished
// newer completions. Only finished sessions enter the ring, so a queued
// or running session is never dropped. The caller holds s.mu across the
// session's terminal transition and this call, so whoever has seen the
// session finish also sees the service's counters and retention settled.
func (s *Service) retire(sess *Session) {
	if old := s.finished[s.finishedNext]; old != nil {
		delete(s.sessions, old.ID)
		if s.holes++; 2*s.holes > len(s.admitted) {
			s.admitted = slices.DeleteFunc(s.admitted, func(a *Session) bool { return !s.retains(a) })
			s.holes = 0
		}
	}
	s.finished[s.finishedNext] = sess
	s.finishedNext = (s.finishedNext + 1) % retainFinished
}

// retains reports whether sess is still kept. The caller holds s.mu.
func (s *Service) retains(sess *Session) bool { return s.sessions[sess.ID] == sess }

// Stats is the service-wide counter snapshot /v1/stats serves.
type Stats struct {
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Queued    int    `json:"queued"`

	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`

	PoolBuilds   uint64 `json:"pool_builds"`
	PoolReuses   uint64 `json:"pool_reuses"`
	PoolDiscards uint64 `json:"pool_discards"`
	PoolWarm     int    `json:"pool_warm"`

	Sessions []Snapshot `json:"sessions,omitempty"`
}

// Stats snapshots the counters, which count every session served.
// withSessions additionally lists the retained sessions (every queued
// and running one and the newest retainFinished finished ones) in
// admission order: the admitted slice, not map iteration, so the
// listing is deterministic.
func (s *Service) Stats(withSessions bool) Stats {
	s.mu.Lock()
	st := Stats{
		Submitted: s.submitted, Rejected: s.rejected,
		Completed: s.completed, Failed: s.failed,
		Queued:         len(s.queue),
		CacheHits:      s.cache.hits,
		CacheMisses:    s.cache.misses,
		CacheEvictions: s.cache.evictions,
	}
	var listed []*Session
	if withSessions {
		listed = make([]*Session, 0, len(s.sessions))
		for _, sess := range s.admitted {
			if s.retains(sess) {
				listed = append(listed, sess)
			}
		}
	}
	s.mu.Unlock()
	st.PoolBuilds, st.PoolReuses, st.PoolDiscards, st.PoolWarm = s.pool.counters()
	for _, sess := range listed {
		st.Sessions = append(st.Sessions, sess.Snapshot())
	}
	return st
}
