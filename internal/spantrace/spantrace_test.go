package spantrace

import (
	"strings"
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

func newBound(every int) (*Tracer, *sim.Engine) {
	eng := sim.NewEngine()
	tr := New(rng.New(11), every)
	tr.Bind(eng)
	return tr, eng
}

// Every method must be a no-op on a nil tracer: instrumented layers
// call them unconditionally.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Bind(sim.NewEngine())
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if id := tr.SampleRoot(Client, "rpc", 1); id != 0 {
		t.Fatalf("SampleRoot on nil = %d", id)
	}
	if id := tr.Begin(Disk, "x", 5, 1); id != 0 {
		t.Fatalf("Begin on nil = %d", id)
	}
	tr.End(5)
	tr.Annotate(5, "d")
	tr.Mark(Fabric, "hop", 5, 0, "")
	tr.Range(Disk, "seek", 5, 0, 1, 0)
	if tr.Cur() != 0 || tr.Swap(7) != 0 || tr.Len() != 0 || tr.Open() != 0 || tr.Sampled() != 0 {
		t.Fatal("nil tracer leaked state")
	}
	if tr.Spans() != nil {
		t.Fatal("nil tracer returned data")
	}
}

func TestDisabledAndUnbound(t *testing.T) {
	// every=0 disables sampling entirely.
	tr, _ := newBound(0)
	if tr.Enabled() {
		t.Fatal("every=0 tracer reports enabled")
	}
	for i := 0; i < 10; i++ {
		if id := tr.SampleRoot(Client, "rpc", 1); id != 0 {
			t.Fatalf("disabled tracer sampled a root: %d", id)
		}
	}
	// Unbound tracer (no engine yet) must not record either.
	ub := New(rng.New(3), 1)
	if ub.Enabled() {
		t.Fatal("unbound tracer reports enabled")
	}
	if id := ub.SampleRoot(Client, "rpc", 1); id != 0 {
		t.Fatalf("unbound tracer sampled a root: %d", id)
	}
	if id := ub.Begin(Disk, "x", 9, 1); id != 0 {
		t.Fatalf("unbound Begin recorded: %d", id)
	}
}

func TestSamplingCadence(t *testing.T) {
	tr, _ := newBound(4)
	roots := 0
	for i := 0; i < 16; i++ {
		if tr.SampleRoot(Client, "rpc", 1) != 0 {
			roots++
		}
	}
	if roots != 4 {
		t.Fatalf("1-in-4 over 16 calls sampled %d roots, want 4", roots)
	}
	if tr.Sampled() != 4 {
		t.Fatalf("Sampled() = %d, want 4", tr.Sampled())
	}
}

// Unsampled contexts must propagate: children of 0 and NoSpan are
// never recorded, so a whole unsampled tree costs nothing.
func TestNoSpanGating(t *testing.T) {
	tr, _ := newBound(1)
	if id := tr.Begin(OSS, "svc", 0, 1); id != 0 {
		t.Fatalf("Begin under 0 recorded %d", id)
	}
	if id := tr.Begin(OSS, "svc", NoSpan, 1); id != 0 {
		t.Fatalf("Begin under NoSpan recorded %d", id)
	}
	tr.Mark(Fabric, "hop", NoSpan, 0, "")
	tr.Range(Disk, "seek", NoSpan, 0, 1, 0)
	tr.End(NoSpan)
	if tr.Len() != 0 {
		t.Fatalf("unsampled context recorded %d spans", tr.Len())
	}
}

func TestSpanLifecycleAndSwap(t *testing.T) {
	tr, eng := newBound(1)
	root := tr.SampleRoot(Client, "rpc-write", 100)
	if root == 0 || root == NoSpan {
		t.Fatalf("root = %d", root)
	}
	old := tr.Swap(root)
	if old != 0 || tr.Cur() != root {
		t.Fatalf("swap: old=%d cur=%d", old, tr.Cur())
	}
	child := tr.Begin(Disk, "disk-write", tr.Cur(), 100)
	tr.Annotate(child, "lun3")
	eng.After(sim.Millisecond, func() {
		tr.End(child)
		tr.End(root)
	})
	eng.Run()
	tr.Swap(old)
	if tr.Open() != 0 {
		t.Fatalf("%d spans left open", tr.Open())
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	if spans[1].Parent != root || spans[1].Detail != "lun3" {
		t.Fatalf("child span wrong: %+v", spans[1])
	}
	if spans[0].Duration() != sim.Millisecond || !spans[0].Done() {
		t.Fatalf("root duration %v", spans[0].Duration())
	}
	// Annotate after close must be a no-op.
	tr.Annotate(child, "late")
	if tr.Spans()[1].Detail != "lun3" {
		t.Fatal("Annotate mutated a closed span")
	}
}

// Same seed, same call sequence → byte-identical span streams. The
// IDs come from the tracer's own rng, the sampling from a counter, so
// nothing varies across reruns.
func TestTracerDeterministic(t *testing.T) {
	run := func() []Span {
		tr, eng := newBound(2)
		for i := 0; i < 8; i++ {
			root := tr.SampleRoot(Client, "rpc", int64(i))
			if root == 0 {
				continue
			}
			c := tr.Begin(Disk, "disk", root, int64(i))
			eng.After(sim.Time(i+1)*sim.Microsecond, func() {
				tr.End(c)
				tr.End(root)
			})
		}
		eng.Run()
		return tr.Spans()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// Synthetic waterfall: bytes count only at layer entry, busy time is
// the per-layer interval union, and rungs come out deepest-first.
func TestWaterfallSynthetic(t *testing.T) {
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Millisecond }
	spans := []Span{
		{ID: 1, Parent: 0, Layer: Client, Op: "rpc", Start: 0, End: ms(10), Bytes: 100},
		// Two overlapping disk spans entering from client: union 0..8.
		{ID: 2, Parent: 1, Layer: Disk, Op: "d1", Start: 0, End: ms(6), Bytes: 60},
		{ID: 3, Parent: 1, Layer: Disk, Op: "d2", Start: ms(4), End: ms(8), Bytes: 40},
		// Same-layer decomposition: bytes must NOT count again.
		{ID: 4, Parent: 2, Layer: Disk, Op: "seek", Start: 0, End: ms(1), Bytes: 60},
		// Open span: skipped entirely.
		{ID: 5, Parent: 1, Layer: OSS, Op: "svc", Start: 0, End: -1, Bytes: 100},
	}
	rungs := Waterfall(spans)
	if len(rungs) != 2 {
		t.Fatalf("got %d rungs, want 2 (open OSS span must be skipped): %+v", len(rungs), rungs)
	}
	d, c := rungs[0], rungs[1]
	if d.Layer != Disk || c.Layer != Client {
		t.Fatalf("rung order wrong: %v then %v (want disk then client)", d.Layer, c.Layer)
	}
	if d.Bytes != 100 {
		t.Fatalf("disk bytes %d, want 100 (entry spans only)", d.Bytes)
	}
	if d.Spans != 3 {
		t.Fatalf("disk span count %d, want 3", d.Spans)
	}
	if d.BusySeconds != 0.008 {
		t.Fatalf("disk busy %v, want 0.008 (interval union)", d.BusySeconds)
	}
	if c.BusySeconds != 0.010 || c.Bytes != 100 {
		t.Fatalf("client rung: %+v", c)
	}
	// Client moved the same bytes over more time: efficiency 0.8.
	if got := c.Efficiency; got < 0.79 || got > 0.81 {
		t.Fatalf("client vs disk efficiency %v, want 0.8", got)
	}
	out := RenderWaterfall(rungs)
	if !strings.Contains(out, "disk") || !strings.Contains(out, "80%") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

// Synthetic critical paths: attribution goes to the deepest busy
// layer at each instant, clipped to the root window.
func TestCriticalPathsSynthetic(t *testing.T) {
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Millisecond }
	spans := []Span{
		// Request 1: disk busy 6 of 10ms, fabric the other 4 → disk-bound.
		{ID: 1, Parent: 0, Layer: Client, Op: "rpc", Start: 0, End: ms(10), Bytes: 1},
		{ID: 2, Parent: 1, Layer: Fabric, Op: "send", Start: 0, End: ms(10), Bytes: 1},
		{ID: 3, Parent: 2, Layer: Disk, Op: "d", Start: ms(4), End: ms(10), Bytes: 1},
		// Request 2: fabric covers everything, disk a sliver → fabric-bound.
		{ID: 4, Parent: 0, Layer: Client, Op: "rpc", Start: ms(20), End: ms(30), Bytes: 1},
		{ID: 5, Parent: 4, Layer: Fabric, Op: "send", Start: ms(20), End: ms(30), Bytes: 1},
		{ID: 6, Parent: 5, Layer: Disk, Op: "d", Start: ms(20), End: ms(21), Bytes: 1},
	}
	rep := CriticalPaths(spans)
	if rep.Requests != 2 {
		t.Fatalf("requests %d, want 2", rep.Requests)
	}
	if rep.Bounded[Disk] != 1 || rep.Bounded[Fabric] != 1 {
		t.Fatalf("bounded: disk %d fabric %d, want 1 and 1 (%+v)",
			rep.Bounded[Disk], rep.Bounded[Fabric], rep)
	}
	// Client is fully shadowed by deeper layers in both requests.
	if rep.Share[Client] != 0 {
		t.Fatalf("client share %v, want 0 (fully covered below)", rep.Share[Client])
	}
	// Request 1: disk 0.6; request 2: disk 0.1 → mean 0.35.
	if got := rep.Share[Disk]; got < 0.34 || got > 0.36 {
		t.Fatalf("disk share %v, want 0.35", got)
	}
	top := rep.Top(1)
	if len(top) != 1 || top[0] != Disk {
		t.Fatalf("Top(1) = %v, want [disk] (tie resolves deeper)", top)
	}
	if !strings.Contains(RenderCritical(rep), "critical path over 2") {
		t.Fatal("render missing header")
	}
}

func TestCountOps(t *testing.T) {
	spans := []Span{
		{ID: 1, Op: "hop"},
		{ID: 2, Op: "send", Bytes: 10},
		{ID: 3, Op: "hop", Bytes: 5},
	}
	ops := CountOps(spans)
	if len(ops) != 2 || ops[0].Op != "hop" || ops[0].N != 2 || ops[0].Bytes != 5 ||
		ops[1].Op != "send" || ops[1].Bytes != 10 {
		t.Fatalf("CountOps = %+v", ops)
	}
}

func TestRenderFlame(t *testing.T) {
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Millisecond }
	spans := []Span{
		{ID: 1, Parent: 0, Layer: Client, Op: "rpc", Start: 0, End: ms(4), Bytes: 8},
		{ID: 2, Parent: 1, Layer: Disk, Op: "disk-write", Start: ms(1), End: ms(3), Bytes: 8, Detail: "lun0"},
	}
	out := RenderFlame(spans, 5)
	if !strings.Contains(out, "rpc") || !strings.Contains(out, "disk-write") || !strings.Contains(out, "lun0") {
		t.Fatalf("flame render missing spans:\n%s", out)
	}
}

// The per-span recording cost the overhead budget rides on.
func BenchmarkRecordSpan(b *testing.B) {
	tr, _ := newBound(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := tr.SampleRoot(Client, "rpc", 1)
		c := tr.Begin(Disk, "disk", root, 1)
		tr.End(c)
		tr.End(root)
	}
}

// The sampling fast path: the 63-in-64 requests that are not traced.
func BenchmarkSampleMiss(b *testing.B) {
	tr, _ := newBound(1 << 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.SampleRoot(Client, "rpc", 1) != 0 {
			b.Fatal("unexpected sample")
		}
	}
}
