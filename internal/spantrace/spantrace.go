// Package spantrace is the simulator's distributed-tracing plane: a
// deterministic, sampling-based span recorder for following one I/O
// request end to end through client RPC, fabric, OSS, OST stack, RAID
// group, and disk mechanics (the paper's Lesson 12 ladder, §V, and the
// per-request visibility §VI-B's IOSI lacked).
//
// Observer-effect contract: attaching a Tracer must not change the
// simulation. The tracer never schedules engine events, never draws
// from a simulation rng stream (span IDs come from its own dedicated
// source), and samples by request counter rather than by coin flip, so
// an untraced and a traced run of the same seed produce identical
// sim.TraceHash fingerprints. Instrumentation sites may wrap completion
// callbacks, but the wrapped callback schedules exactly the events the
// bare one would.
//
// All Tracer methods are nil-receiver safe: instrumented packages call
// them unconditionally and pay only a nil check when tracing is off.
package spantrace

import (
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

// SpanID identifies one recorded span. 0 means "no span" (unsampled or
// tracing off); NoSpan marks a request context that was considered and
// deliberately not sampled, so deeper layers neither attach child spans
// nor self-sample a fresh root for it.
type SpanID uint64

// NoSpan is the claimed-but-unsampled sentinel (see SpanID).
const NoSpan SpanID = ^SpanID(0)

// Layer is the stack position a span belongs to, ordered shallow to
// deep. The critical-path extractor resolves attribution ties toward
// the deeper layer (the paper profiles bottom-up for the same reason:
// the deepest busy layer is the one that bounded the request).
type Layer uint8

const (
	Client Layer = iota // RPC issue/retry, pipeline windowing
	Fabric              // torus hops, LNET router, SAN links
	OSS                 // obdfilter CPU service
	OST                 // write-back cache admission, flush, journal
	RAID                // parity RMW, degraded reads, rebuild
	Disk                // seek, rotation, transfer, tail latency
	numLayers
)

// NumLayers is the number of distinct layers (for report arrays).
const NumLayers = int(numLayers)

func (l Layer) String() string {
	switch l {
	case Client:
		return "client"
	case Fabric:
		return "fabric"
	case OSS:
		return "oss"
	case OST:
		return "ost"
	case RAID:
		return "raid"
	case Disk:
		return "disk"
	}
	return "layer?"
}

// Span is one recorded interval (or instant, for marks) in a sampled
// request tree. Parent is 0 for roots. End is -1 while the span is
// open; reports skip spans that never closed.
type Span struct {
	ID     SpanID
	Parent SpanID
	Layer  Layer
	Op     string
	Start  sim.Time
	End    sim.Time
	Bytes  int64
	Detail string
}

// Done reports whether the span was closed.
func (s Span) Done() bool { return s.End >= s.Start }

// Duration is End-Start for closed spans, 0 otherwise.
func (s Span) Duration() sim.Time {
	if !s.Done() {
		return 0
	}
	return s.End - s.Start
}

// Tracer records sampled request trees. Create with New, attach a
// clock with Bind (center.AttachTracer and lustre.FS.SetTracer do this
// for you), and hand it to the instrumented layers. One Tracer serves
// exactly one engine/run.
type Tracer struct {
	eng   *sim.Engine
	src   *rng.Source
	every uint64
	count uint64
	cur   SpanID
	spans []Span
	// open maps still-open span IDs to their index in spans. Lookup
	// and delete only — never iterated, so map order cannot leak.
	open map[SpanID]int
}

// New builds a tracer sampling 1 request in every (0 disables
// sampling entirely). src must be a dedicated source — the tracer
// draws span IDs from it, and sharing a simulation stream would
// violate the observer-effect contract. The tracer is inert until
// Bind attaches the engine whose clock timestamps spans.
func New(src *rng.Source, every int) *Tracer {
	if every < 0 {
		every = 0
	}
	return &Tracer{src: src, every: uint64(every), open: make(map[SpanID]int)}
}

// Bind attaches the engine clock. Safe to call repeatedly with the
// same engine; spans recorded before Bind are impossible (SampleRoot
// and Begin return 0 while unbound).
func (t *Tracer) Bind(eng *sim.Engine) {
	if t != nil {
		t.eng = eng
	}
}

// Enabled reports whether this tracer can record anything at all.
func (t *Tracer) Enabled() bool { return t != nil && t.every > 0 && t.eng != nil }

func (t *Tracer) newID() SpanID {
	id := SpanID(t.src.Uint64())
	for id == 0 || id == NoSpan {
		id = SpanID(t.src.Uint64())
	}
	return id
}

func (t *Tracer) record(layer Layer, op string, parent SpanID, bytes int64) SpanID {
	id := t.newID()
	t.open[id] = len(t.spans)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Layer: layer, Op: op,
		Start: t.eng.Now(), End: -1, Bytes: bytes,
	})
	return id
}

// SampleRoot applies the 1-in-N sampling decision and, when it hits,
// opens a root span. The decision is counter-based (every N-th call),
// not random, so it consumes no randomness and is identical across
// reruns. Returns 0 when the request is not sampled.
func (t *Tracer) SampleRoot(layer Layer, op string, bytes int64) SpanID {
	if !t.Enabled() {
		return 0
	}
	t.count++
	if t.count%t.every != 0 {
		return 0
	}
	return t.record(layer, op, 0, bytes)
}

// Begin opens a child span under parent. Unsampled contexts (parent 0
// or NoSpan) propagate: the child is not recorded and Begin returns 0.
func (t *Tracer) Begin(layer Layer, op string, parent SpanID, bytes int64) SpanID {
	if t == nil || t.eng == nil || parent == 0 || parent == NoSpan {
		return 0
	}
	return t.record(layer, op, parent, bytes)
}

// End closes an open span at the current sim time. No-op for 0/NoSpan
// or already-closed IDs.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 || id == NoSpan {
		return
	}
	if i, ok := t.open[id]; ok {
		delete(t.open, id)
		t.spans[i].End = t.eng.Now()
	}
}

// Annotate attaches a detail string to a still-open span.
func (t *Tracer) Annotate(id SpanID, detail string) {
	if t == nil || id == 0 || id == NoSpan {
		return
	}
	if i, ok := t.open[id]; ok {
		t.spans[i].Detail = detail
	}
}

// Mark records an instantaneous (zero-duration) child span — hop
// traversals, retries, reroutes, drops.
func (t *Tracer) Mark(layer Layer, op string, parent SpanID, bytes int64, detail string) {
	if t == nil || t.eng == nil || parent == 0 || parent == NoSpan {
		return
	}
	now := t.eng.Now()
	t.spans = append(t.spans, Span{
		ID: t.newID(), Parent: parent, Layer: layer, Op: op,
		Start: now, End: now, Bytes: bytes, Detail: detail,
	})
}

// Range records a closed child span with an explicit interval. Disk
// instrumentation uses it to decompose one service retroactively into
// seek/rotate/transfer/tail once the command completes.
func (t *Tracer) Range(layer Layer, op string, parent SpanID, start, end sim.Time, bytes int64) {
	if t == nil || t.eng == nil || parent == 0 || parent == NoSpan || end < start {
		return
	}
	t.spans = append(t.spans, Span{
		ID: t.newID(), Parent: parent, Layer: layer, Op: op,
		Start: start, End: end, Bytes: bytes,
	})
}

// Cur returns the current request context (the span deeper layers
// should parent to), or 0/NoSpan. The simulation is single-threaded,
// so one register suffices: instrumentation brackets each synchronous
// call boundary with old := tr.Swap(ctx); ...; tr.Swap(old), and
// deferred callbacks re-Swap their captured context.
func (t *Tracer) Cur() SpanID {
	if t == nil {
		return 0
	}
	return t.cur
}

// Swap installs p as the current context and returns the previous one.
func (t *Tracer) Swap(p SpanID) SpanID {
	if t == nil {
		return 0
	}
	old := t.cur
	t.cur = p
	return old
}

// Spans returns the recorded spans in record order (parents precede
// children). The slice is the tracer's own backing store; treat it as
// read-only.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Len is the number of recorded spans.
//
//simlint:allow test-only-export read-only accessor the tracer tests assert
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Open is the number of spans begun but not yet ended.
//
//simlint:allow test-only-export read-only accessor the tracer tests assert
func (t *Tracer) Open() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}

// Sampled is the number of root spans recorded so far.
func (t *Tracer) Sampled() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.spans {
		if t.spans[i].Parent == 0 {
			n++
		}
	}
	return n
}
