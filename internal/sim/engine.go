package sim

import (
	"container/heap"
	"fmt"
)

// Event is a scheduled callback. The zero Event is invalid; events are
// created by Engine.At and Engine.After. An Event may be canceled before
// it fires; cancellation is cheap (lazy deletion from the heap).
type Event struct {
	t        Time
	seq      uint64
	fn       func()
	eng      *Engine
	canceled bool
	fired    bool
	idx      int // position in the heap, -1 once popped
}

// Time returns when the event is (or was) scheduled to fire.
func (e *Event) Time() Time { return e.t }

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op. Cancel reports whether the event was
// still pending. The canceled event stays in the heap as a tombstone
// (lazy deletion); the engine's live-event accounting and tombstone
// reaping keep Pending and heap size honest regardless.
func (e *Event) Cancel() bool {
	if e == nil || e.fired || e.canceled {
		return false
	}
	e.canceled = true
	e.fn = nil
	if e.eng != nil {
		e.eng.live--
		e.eng.tomb++
		e.eng.maybeReap()
	}
	return true
}

// Pending reports whether the event is still waiting to fire.
func (e *Event) Pending() bool { return e != nil && !e.fired && !e.canceled }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulation executive. Events scheduled for
// the same instant fire in scheduling order (FIFO tie-break), which makes
// runs deterministic — provided model code schedules events in a
// deterministic order (in particular, never from Go map iteration; see
// the determinism contract in DESIGN.md).
//
// Engine is not safe for concurrent use; all model code must run on the
// goroutine driving Run/Step. Parallel harnesses (internal/sweep) give
// each worker engines of its own.
type Engine struct {
	now     Time
	seq     uint64
	heap    eventHeap
	fired   uint64
	live    int // scheduled, uncanceled, unfired events in the heap
	tomb    int // canceled tombstones still occupying heap slots
	stopped bool
	trace   func(at Time, seq uint64)
}

// SetTrace installs a hook that observes every fired event (its
// timestamp and scheduling sequence number) just before the callback
// runs. Two runs of the same model are bit-identical exactly when their
// traces are: the sequence number captures scheduling order, so any
// map-ordered or otherwise nondeterministic scheduling shows up as a
// trace divergence even when the fire times happen to agree. Pass nil
// to remove the hook.
func (e *Engine) SetTrace(fn func(at Time, seq uint64)) { e.trace = fn }

// TraceHash folds an event trace into one comparable fingerprint
// (FNV-1a over the (time, seq) stream). Feed Observe to SetTrace and
// compare Sum values across runs to audit determinism.
type TraceHash struct {
	h      uint64
	events uint64
}

// NewTraceHash returns an empty trace fingerprint.
func NewTraceHash() *TraceHash { return &TraceHash{h: 14695981039346656037} }

// Observe folds one fired event into the fingerprint.
func (t *TraceHash) Observe(at Time, seq uint64) {
	t.events++
	for _, v := range [2]uint64{uint64(at), seq} {
		for i := 0; i < 8; i++ {
			t.h ^= (v >> (8 * i)) & 0xff
			t.h *= 1099511628211
		}
	}
}

// Sum returns the fingerprint of everything observed so far.
func (t *TraceHash) Sum() uint64 { return t.h }

// Events returns how many fired events were observed.
func (t *TraceHash) Events() uint64 { return t.events }

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live events still scheduled. Canceled
// tombstones awaiting lazy deletion are not counted, so Pending() == 0
// means the engine truly has no work.
func (e *Engine) Pending() int { return e.live }

// reapFloor is the heap size below which tombstone reaping is not worth
// the heapify; lazy deletion handles small heaps fine.
const reapFloor = 64

// maybeReap compacts the heap when canceled tombstones outnumber live
// events and the heap is large enough to matter. Compaction preserves
// each surviving event's (time, seq) key, so the pop order — and with
// it every trace fingerprint — is unchanged.
func (e *Engine) maybeReap() {
	if e.tomb <= e.live || len(e.heap) < reapFloor {
		return
	}
	kept := e.heap[:0]
	for _, ev := range e.heap {
		if ev.canceled {
			ev.idx = -1
			continue
		}
		ev.idx = len(kept)
		kept = append(kept, ev)
	}
	// Zero the tail so dropped tombstones don't pin their callbacks.
	for i := len(kept); i < len(e.heap); i++ {
		e.heap[i] = nil
	}
	e.heap = kept
	e.tomb = 0
	heap.Init(&e.heap)
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now)) //simlint:allow no-library-panic causality assertion: scheduling into the past is a model bug
	}
	ev := &Event{t: t, seq: e.seq, fn: fn, eng: e}
	e.seq++
	e.live++
	heap.Push(&e.heap, ev)
	return ev
}

// Reschedule moves a still-pending event to absolute time t, reusing
// its allocation and callback. The event receives a fresh sequence
// number, so FIFO tie-breaking behaves exactly as if the event had been
// canceled and newly scheduled — but without allocating a replacement
// or leaving a canceled tombstone in the heap. It reports whether the
// move happened; a fired or canceled event is left untouched (schedule
// a new one instead). Like At, moving an event into the past panics.
func (e *Engine) Reschedule(ev *Event, t Time) bool {
	if !ev.Pending() || ev.idx < 0 {
		return false
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling event at %v before now %v", t, e.now)) //simlint:allow no-library-panic causality assertion: scheduling into the past is a model bug
	}
	ev.t = t
	ev.seq = e.seq
	e.seq++
	heap.Fix(&e.heap, ev.idx)
	return true
}

// After schedules fn to run d after the current time. Negative d is
// treated as zero.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Stop makes the current Run/RunUntil return after the in-flight event
// completes. Pending events remain scheduled.
//
// Stop is sticky: the flag stays set until ClearStop is called, so a
// Stop issued between runs (e.g. by a barrier controller between
// synchronization quanta) makes the next Run/RunUntil return
// immediately instead of being silently lost. Resuming therefore takes
// an explicit ClearStop followed by Run/RunUntil.
func (e *Engine) Stop() { e.stopped = true }

// ClearStop re-arms the engine after a Stop. It is the only way the
// stopped flag is cleared; Run and RunUntil never reset it themselves.
func (e *Engine) ClearStop() { e.stopped = false }

// Stopped reports whether Stop has been called without a matching
// ClearStop. While true, Run and RunUntil return without firing events.
func (e *Engine) Stopped() bool { return e.stopped }

// Step executes the single next event, advancing the clock to its
// timestamp. It reports whether an event was executed (false when the
// queue is empty). Step ignores the stopped flag; it fires exactly one
// event regardless.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		ev := heap.Pop(&e.heap).(*Event)
		if ev.canceled {
			e.tomb--
			continue
		}
		e.now = ev.t
		ev.fired = true
		fn := ev.fn
		ev.fn = nil
		e.live--
		e.fired++
		if e.trace != nil {
			e.trace(ev.t, ev.seq)
		}
		fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty or Stop is called. If the
// engine is already stopped (a sticky Stop not yet cleared), Run returns
// immediately without firing anything.
func (e *Engine) Run() {
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t. When the loop drains
// normally the clock then advances to t (even if the queue emptied
// earlier); when a Stop fires mid-run the clock stays at the last fired
// event, so unprocessed events are never left stranded behind the clock
// and a later resume continues exactly where the run halted.
func (e *Engine) RunUntil(t Time) {
	for !e.stopped {
		next := e.peek()
		if next == nil || next.t > t {
			// Drained normally: the window is fully processed.
			if e.now < t {
				e.now = t
			}
			return
		}
		e.Step()
	}
}

// RunFor runs the simulation for a duration d of simulated time.
// Negative d is treated as zero, and a horizon that would overflow the
// clock saturates at MaxTime instead of wrapping behind it (a wrapped
// horizon would strand every pending event "in the future" of a
// negative deadline and silently run nothing).
func (e *Engine) RunFor(d Time) {
	if d < 0 {
		d = 0
	}
	t := e.now + d
	if t < e.now { // overflow: saturate at the end of representable time
		t = MaxTime
	}
	e.RunUntil(t)
}

// Reset returns the engine to its just-constructed state: the clock at
// zero, no scheduled events, no canceled-tombstone debt, counters
// cleared, the sticky stop flag re-armed, and any trace hook removed.
// This is the warm-pool seam (internal/serve): a model stack built on a
// reset engine must reproduce a fresh engine's event-trace fingerprint
// bit for bit, because nothing — sequence numbers included — survives.
//
// Events still in the heap are tombstoned in place (callback and engine
// references dropped) so a stale *Event held by old model code becomes
// permanently non-pending and its Cancel a no-op, rather than a
// corruption of the next run's live/tomb accounting.
func (e *Engine) Reset() {
	for _, ev := range e.heap {
		ev.canceled = true
		ev.fn = nil
		ev.eng = nil
		ev.idx = -1
	}
	e.heap = e.heap[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.live = 0
	e.tomb = 0
	e.stopped = false
	e.trace = nil
}

func (e *Engine) peek() *Event {
	for len(e.heap) > 0 && e.heap[0].canceled {
		heap.Pop(&e.heap)
		e.tomb--
	}
	if len(e.heap) == 0 {
		return nil
	}
	return e.heap[0]
}
