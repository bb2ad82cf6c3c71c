package spantrace_test

import (
	"bytes"
	"testing"

	"spiderfs/internal/chaos"
	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/topology"
	"spiderfs/internal/trace"
)

// runCampaign runs a short chaos campaign with the engine's event
// trace armed, optionally with a sampling tracer attached.
func runCampaign(seed uint64, every int) (*chaos.Report, *spantrace.Tracer) {
	cfg := chaos.QuickConfig(seed)
	cfg.Duration = 6 * sim.Hour
	cfg.TraceEvents = true
	var tr *spantrace.Tracer
	if every > 0 {
		tr = spantrace.New(rng.New(99), every)
		cfg.Tracer = tr
	}
	return chaos.Run(cfg), tr
}

// The observer-effect contract: a traced run of the same seed fires
// the exact same events at the exact same times as an untraced run.
// The engine's event-trace fingerprint covers every (time, seq) fired,
// so any event the tracer added, removed, or reordered fails this.
func TestTracingHasNoObserverEffect(t *testing.T) {
	base, _ := runCampaign(2026, 0)
	traced, tr := runCampaign(2026, 8)
	if tr.Len() == 0 {
		t.Fatal("tracer recorded nothing; the comparison is vacuous")
	}
	if base.TraceEvents != traced.TraceEvents {
		t.Fatalf("event counts diverge: untraced %d, traced %d", base.TraceEvents, traced.TraceEvents)
	}
	if base.EventTrace != traced.EventTrace {
		t.Fatalf("event-trace fingerprints diverge: untraced %#x, traced %#x",
			base.EventTrace, traced.EventTrace)
	}
	if base.Availability != traced.Availability {
		t.Fatalf("availability diverges: untraced %v, traced %v", base.Availability, traced.Availability)
	}
}

// Two traced runs of the same seed must be bit-identical: same engine
// fingerprint, same spans (IDs included — they come from the tracer's
// own seeded rng), same exported JSON.
func TestTracedDoubleRunBitIdentical(t *testing.T) {
	r1, t1 := runCampaign(7, 4)
	r2, t2 := runCampaign(7, 4)
	if r1.EventTrace != r2.EventTrace || r1.TraceEvents != r2.TraceEvents {
		t.Fatalf("engine fingerprints diverge: %#x/%d vs %#x/%d",
			r1.EventTrace, r1.TraceEvents, r2.EventTrace, r2.TraceEvents)
	}
	a, b := t1.Spans(), t2.Spans()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("span counts: %d vs %d (want equal, nonzero)", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	var buf1, buf2 bytes.Buffer
	if err := trace.WriteSpans(&buf1, a); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSpans(&buf2, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("exported span JSON differs between identical runs")
	}
}

// Fault visibility: during an injected OSS outage a traced client's
// stalled RPCs must surface as rpc-retry marks, and after recovery the
// same workload must produce none.
func TestRetrySpansAppearDuringOSSOutage(t *testing.T) {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(5))
	tr := spantrace.New(rng.New(6), 1)
	fs.SetTracer(tr)

	cl := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	cl.Tracer = tr
	cl.RPCTimeout = 5 * sim.Second
	var file *lustre.File
	fs.CreateOn("trace/out", []int{0}, func(f *lustre.File) { file = f })
	eng.Run()

	retries := func() int {
		n := 0
		for _, s := range tr.Spans() {
			if s.Op == "rpc-retry" {
				n++
			}
		}
		return n
	}

	// Non-imperative recovery stalls clients for minutes; a 5s RPC
	// watchdog fires repeatedly across the outage.
	if err := lustre.FailOSS(fs, 0, false, nil); err != nil {
		t.Fatal(err)
	}
	cl.WriteStream(file, 8<<20, 1<<20, nil)
	eng.Run()
	during := retries()
	if during == 0 {
		t.Fatal("no rpc-retry spans recorded during the OSS outage")
	}
	if cl.RPCRetries == 0 {
		t.Fatal("client counted no retries; the workload never stalled")
	}

	// Recovered: the same stream must complete without a single retry.
	cl.WriteStream(file, 8<<20, 1<<20, nil)
	eng.Run()
	if after := retries(); after != during {
		t.Fatalf("rpc-retry spans grew after recovery: %d -> %d", during, after)
	}
}
