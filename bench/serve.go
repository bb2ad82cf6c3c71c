package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"spiderfs/internal/rng"
	"spiderfs/internal/serve"
)

// serveMix drives an in-process spidersimd (2 workers, warm pool of 2,
// result cache of 128, prewarmed) over loopback HTTP as a closed loop:
// two callers each POST the next spec of the mix, stream its /events to
// the end, then GET its /report, and only then take another. The
// calibrated work is 6,000 sessions.
var serveMix = workload{name: "serve-mix", setup: setupServe}

const (
	serveSessions = 6000
	serveCallers  = 2
	serveHotSet   = 64
	// serveChaosSeeds: chaos sessions draw seeds 0-40. Quick campaigns
	// with seed 41 (and 8 more of 0-200) crash the daemon; see README.md.
	serveChaosSeeds = 41
	serveSampled    = 32
)

// serveSpecs returns the session mix for a seed: 77% fresh small
// workload specs (the warm-pool path), 20% drawn from a hot set of 64
// specs that fits the cache (the cache path), and 3% quick chaos
// campaigns (the cold path). The shares are exact and the chaos seeds
// cycle through 0-40, so every seed asks for the same amount of cold
// work; the seed decides the order, the fresh specs and the hot draws.
func serveSpecs(seed uint64, n int) []serve.Spec {
	src := rng.New(seed).Split("bench/serve-mix")
	// Spec seeds: fresh specs use base+i, the hot set base+9,000,000+k,
	// so no two specs of a run share a cache key by accident.
	base := seed * 10_000_000
	small := func(s uint64) serve.Spec {
		return serve.Spec{Kind: "workload", Seed: s, Waves: 1 + src.Intn(2),
			Flows: 32 * (1 + src.Intn(4)), Bytes: float64(4<<20) * float64(1+src.Intn(4))}
	}
	hot := make([]serve.Spec, serveHotSet)
	for k := range hot {
		hot[k] = small(base + 9_000_000 + uint64(k))
	}
	const fresh, cached, cold = 0, 1, 2
	kinds := make([]int, n)
	nChaos, nHot := int(math.Round(0.03*float64(n))), int(math.Round(0.20*float64(n)))
	for i := range kinds {
		switch {
		case i < nChaos:
			kinds[i] = cold
		case i < nChaos+nHot:
			kinds[i] = cached
		}
	}
	src.Shuffle(n, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	specs := make([]serve.Spec, n)
	chaos := uint64(0)
	for i, k := range kinds {
		switch k {
		case cold:
			specs[i] = serve.Spec{Kind: "chaos", Seed: (seed + chaos) % serveChaosSeeds}
			chaos++
		case cached:
			specs[i] = hot[src.Intn(serveHotSet)]
		default:
			specs[i] = small(base + uint64(i))
		}
		// Normalizing fills the defaults the service fills, so Key() here
		// is the service's cache key. These specs are valid by
		// construction.
		_ = specs[i].Normalize()
	}
	return specs
}

type serveJob struct {
	specs   []serve.Spec
	sampled []bool // sessions whose report bytes are re-checked solo
	svc     *serve.Service
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
	results []session
}

// session is one caller's view of one session.
type session struct {
	err     error
	id      string
	path    string // cold, warm or cache, from the session's running event
	state   string // the terminal state the event stream ended on
	report  []byte // kept for sampled sessions only
	fp      string
	metrics []serve.Metric
	runNs   int64 // worker pickup to terminal state, as the service timed it
	queueNs int64 // the rest of POST sent to stream end: admission and queueing
}

func setupServe(o options, tr *tracer) (job, error) {
	j := &serveJob{specs: serveSpecs(o.seed, o.scaled(serveSessions))}
	j.sampled = make([]bool, len(j.specs))
	for k := 0; k < serveSampled; k++ {
		j.sampled[k*len(j.specs)/serveSampled] = true
	}

	sp := tr.begin("serve.start", -1, -1)
	origin := time.Now()
	j.svc = serve.New(serve.Config{
		Seed: o.seed, Workers: 2, PoolSize: 2, CacheSize: 128,
		Clock: func() int64 { return time.Since(origin).Nanoseconds() },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		j.svc.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	j.srv = &http.Server{Handler: j.svc.Handler()}
	j.served = make(chan error, 1)
	go func() { j.served <- j.srv.Serve(ln) }()
	j.base = "http://" + ln.Addr().String()
	// A transport of its own: no proxy from the environment, and one
	// kept-alive connection per caller.
	j.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveCallers, MaxIdleConnsPerHost: serveCallers},
		Timeout:   time.Minute,
	}
	tr.end(sp)

	sp = tr.begin("serve.prewarm", -1, -1)
	j.svc.Prewarm(2, false)
	tr.end(sp)

	if _, _, err := j.get("/v1/stats"); err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

func (j *serveJob) close() {
	j.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if j.srv.Shutdown(ctx) != nil {
		j.srv.Close()
	}
	<-j.served
	j.svc.Close()
}

// get fetches path and returns the status and body.
func (j *serveJob) get(path string) (int, []byte, error) {
	resp, err := j.client.Get(j.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (j *serveJob) run(tr *tracer) *outcome {
	j.results = make([]session, len(j.specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each caller takes the next spec as soon as its previous
			// session's report arrives, so neither caller idles while the
			// other still has work. Spec i is taken once: results[i] is
			// written by one goroutine only.
			for i := int(next.Add(1) - 1); i < len(j.specs); i = int(next.Add(1) - 1) {
				j.results[i] = j.session(tr, i)
			}
		}()
	}
	wg.Wait()
	return j.tally()
}

// session runs one closed-loop session: submit, stream, report.
func (j *serveJob) session(tr *tracer, i int) (s session) {
	sp := tr.begin("serve.session", -1, i)
	defer tr.end(sp)
	start := time.Now()

	leg := tr.begin("serve.submit", sp, i)
	body, err := json.Marshal(j.specs[i])
	if err != nil {
		s.err = err
		return s
	}
	resp, err := j.client.Post(j.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	var snap serve.Snapshot
	data, err := io.ReadAll(resp.Body) // to EOF, so the connection is reused
	resp.Body.Close()
	if err == nil {
		err = json.Unmarshal(data, &snap)
	}
	tr.end(leg)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		s.err = fmt.Errorf("submit: status %d, %v", resp.StatusCode, err)
		return s
	}
	s.id = snap.ID

	leg = tr.begin("serve.stream", sp, i)
	if s.err = j.stream(&s); s.err != nil {
		return s
	}
	tr.end(leg)
	streamed := time.Since(start).Nanoseconds()

	leg = tr.begin("serve.report", sp, i)
	status, rep, err := j.get("/v1/sessions/" + s.id + "/report")
	tr.end(leg)
	if status != http.StatusOK || err != nil {
		s.err = fmt.Errorf("report: status %d, %v", status, err)
		return s
	}
	var parsed serve.Report
	if err := json.Unmarshal(rep, &parsed); err != nil {
		s.err = fmt.Errorf("report: %w", err)
		return s
	}
	s.fp, s.metrics = parsed.Fingerprint, parsed.Metrics
	if j.sampled[i] {
		s.report = rep
	}
	if sess, ok := j.svc.Session(s.id); ok {
		s.runNs = sess.LatencyNs()
	}
	s.queueNs = max(0, streamed-s.runNs)
	return s
}

// stream reads the session's progress events until the stream ends.
func (j *serveJob) stream(s *session) error {
	resp, err := j.client.Get(j.base + "/v1/sessions/" + s.id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev serve.Event
		if err := dec.Decode(&ev); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("events: %w", err)
		}
		if ev.State == serve.StateRunning && s.path == "" {
			s.path = ev.Note
		}
		s.state = ev.State
	}
}

// tally folds the sessions in spec order, so the fingerprint does not
// depend on how the callers interleaved.
func (j *serveJob) tally() *outcome {
	out := newOutcome()
	first := map[string]string{}
	paths := []string{"warm", "cold", "cache"}
	runNs := make([][]int64, len(paths))
	var queueNs []int64
	var events, flows, bytesDelivered, stalled, dropped float64
	for i, s := range j.results {
		out.attempted++
		if s.err != nil || s.state != serve.StateDone {
			out.failed++
			out.problem("session %d (%s): %v, ended %q", i, j.specs[i].Key(), s.err, s.state)
			continue
		}
		out.foldString(s.fp)
		key := j.specs[i].Key()
		if fp, ok := first[key]; !ok {
			first[key] = s.fp
		} else if fp != s.fp {
			out.problem("session %d (%s, %s path) returned %s, the spec's first run %s", i, key, s.path, s.fp, fp)
		}
		for p, name := range paths {
			if s.path == name {
				runNs[p] = append(runNs[p], s.runNs)
			}
		}
		queueNs = append(queueNs, s.queueNs)
		if s.path != "cache" && j.specs[i].Kind == "workload" {
			events += metricOf(s.metrics, "events")
			flows += metricOf(s.metrics, "flows_completed")
			bytesDelivered += metricOf(s.metrics, "bytes_delivered")
			stalled += metricOf(s.metrics, "stalled_sends")
			dropped += metricOf(s.metrics, "dropped_flows")
		}
	}

	st := j.svc.Stats(false)
	hitRate := 0.0
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		hitRate = float64(st.CacheHits) / float64(lookups)
	}
	out.gauge("sim.events", events)
	out.gauge("netsim.flows_completed", flows)
	out.gauge("netsim.gb_delivered", bytesDelivered/1e9)
	out.gauge("netsim.stalled_sends", stalled)
	out.gauge("netsim.dropped_flows", dropped)
	out.gauge("serve.queue_ms", quantile(queueNs, 0.5)/1e6)
	for p, name := range paths {
		out.gauge("serve.run_ms."+name, quantile(runNs[p], 0.5)/1e6)
	}
	out.gauge("serve.cache_hit_rate", hitRate)
	out.gauge("serve.pool_reuses", float64(st.PoolReuses))
	out.gauge("serve.pool_builds", float64(st.PoolBuilds))
	out.gauge("serve.rejected", float64(st.Rejected))
	out.gauge("serve.failed", float64(st.Failed))
	if st.Rejected > 0 || st.Failed > 0 {
		out.problem("the service rejected %d and failed %d sessions", st.Rejected, st.Failed)
	}
	return out
}

func metricOf(ms []serve.Metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// verify re-runs the sampled specs solo; their reports must match the
// bytes the daemon served.
func (j *serveJob) verify(out *outcome) {
	for i, s := range j.sampled {
		if !s || j.results[i].report == nil {
			continue // a failed session; tally has reported it
		}
		rep, err := serve.RunSolo(j.specs[i], nil)
		if err != nil {
			out.problem("solo re-run of session %d: %v", i, err)
			continue
		}
		data, err := rep.JSON()
		if err != nil {
			out.problem("solo re-run of session %d: %v", i, err)
			continue
		}
		if !bytes.Equal(data, j.results[i].report) {
			out.problem("session %d (%s): the daemon's report differs from the solo run's", i, j.specs[i].Key())
		}
	}
}
