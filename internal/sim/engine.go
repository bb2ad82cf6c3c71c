package sim

import "fmt"

// Event is a handle to a scheduled callback, returned by Engine.At and
// Engine.After. It is a small value: copy it freely. The engine recycles
// the event behind a handle once it fires, once its canceled tombstone
// leaves the heap, and on Reset; a generation number in the handle tells
// the uses of one event apart, so a handle outlives its event safely:
// Cancel, Reschedule and Pending on a fired, canceled or pre-Reset
// handle are no-ops that report false, even when the engine has since
// reused the event for another callback. The zero Event is a valid
// handle that is never pending.
type Event struct {
	ev  *event
	gen uint64
}

// event is the engine's recycled record of one scheduled callback. A
// sim.Server completion is data, not a closure: the server and the job's
// service time ride in srv and service, and fn is the job's own done.
// The fields fit a 64-byte allocation class.
type event struct {
	t        Time
	seq      uint64
	fn       func()
	srv      *Server
	service  Time
	eng      *Engine
	gen      uint64 // bumped each time the event is recycled
	idx      int32  // position in the heap
	canceled bool   // a tombstone awaiting removal from the heap
}

// live returns the handle's event if it is still pending, else nil.
func (h Event) live() *event {
	if h.ev == nil || h.ev.gen != h.gen || h.ev.canceled {
		return nil
	}
	return h.ev
}

// Time returns when a pending event is scheduled to fire, or 0 once it
// has fired or been canceled.
//
//simlint:allow test-only-export read-only accessor the engine tests assert handle state with
func (h Event) Time() Time {
	if ev := h.live(); ev != nil {
		return ev.t
	}
	return 0
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op. Cancel reports whether the event was
// still pending. The canceled event stays in the heap as a tombstone
// (lazy deletion); the engine's live-event accounting and tombstone
// reaping keep Pending and heap size honest regardless.
func (h Event) Cancel() bool {
	ev := h.live()
	if ev == nil {
		return false
	}
	ev.canceled = true
	ev.fn = nil
	e := ev.eng
	e.live--
	e.tomb++
	e.maybeReap()
	return true
}

// Pending reports whether the event is still waiting to fire.
func (h Event) Pending() bool { return h.live() != nil }

func (a *event) before(b *event) bool {
	return a.t < b.t || a.t == b.t && a.seq < b.seq
}

// eventHeap is a binary min-heap on (t, seq). The key is a strict total
// order, so every correct heap pops the same sequence of events.
type eventHeap []*event

func (h eventHeap) set(i int, ev *event) {
	h[i] = ev
	ev.idx = int32(i)
}

// up moves h[j] toward the root until its parent is before it.
func (h eventHeap) up(j int) {
	ev := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !ev.before(h[i]) {
			break
		}
		h.set(j, h[i])
		j = i
	}
	h.set(j, ev)
}

// down moves h[i] toward the leaves until both children are after it,
// and reports whether it moved.
func (h eventHeap) down(i int) bool {
	ev := h[i]
	i0, n := i, len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].before(h[j]) {
			j = r
		}
		if !h[j].before(ev) {
			break
		}
		h.set(i, h[j])
		i = j
	}
	h.set(i, ev)
	return i > i0
}

// fix restores heap order after h[i]'s key changed.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// push adds ev to the heap.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	ev := old[0]
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return ev
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
	now   Time
	seq   uint64
	heap  eventHeap
	fired uint64
	live  int // scheduled, uncanceled, unfired events in the heap
	tomb  int // canceled tombstones still occupying heap slots
	trace func(at Time, seq uint64)
	free  []*event // recycled events, reused by schedule
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
// The fold is unrolled over the 16 little-endian bytes of at then seq;
// it equals the byte loop exactly.
func (t *TraceHash) Observe(at Time, seq uint64) {
	const prime = 1099511628211
	t.events++
	h, a := t.h, uint64(at)
	h = (h ^ a&0xff) * prime
	h = (h ^ a>>8&0xff) * prime
	h = (h ^ a>>16&0xff) * prime
	h = (h ^ a>>24&0xff) * prime
	h = (h ^ a>>32&0xff) * prime
	h = (h ^ a>>40&0xff) * prime
	h = (h ^ a>>48&0xff) * prime
	h = (h ^ a>>56) * prime
	h = (h ^ seq&0xff) * prime
	h = (h ^ seq>>8&0xff) * prime
	h = (h ^ seq>>16&0xff) * prime
	h = (h ^ seq>>24&0xff) * prime
	h = (h ^ seq>>32&0xff) * prime
	h = (h ^ seq>>40&0xff) * prime
	h = (h ^ seq>>48&0xff) * prime
	h = (h ^ seq>>56) * prime
	t.h = h
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
//
//simlint:allow test-only-export read-only accessor the engine tests assert a drained queue with
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
			e.recycle(ev)
			continue
		}
		ev.idx = int32(len(kept))
		kept = append(kept, ev)
	}
	e.heap = kept
	e.tomb = 0
	for i := len(kept)/2 - 1; i >= 0; i-- {
		kept.down(i)
	}
}

// recycle retires ev: the generation bump turns every handle to it
// stale, and the event joins the free list for reuse. Within a run the
// heap and the free list together hold at most the deepest heap's
// events, so stale heap slots pin nothing that is not already kept.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.srv = nil
	ev.canceled = false
	e.free = append(e.free, ev)
}

// schedule queues a callback at t: fn, or srv.finish(service, fn) when
// srv is set. It reuses a recycled event when one is free.
func (e *Engine) schedule(t Time, fn func(), srv *Server, service Time) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now)) //simlint:allow no-library-panic causality assertion: scheduling into the past is a model bug
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{eng: e}
	}
	ev.t, ev.seq, ev.fn, ev.srv, ev.service = t, e.seq, fn, srv, service
	e.seq++
	e.live++
	e.heap.push(ev)
	return Event{ev: ev, gen: ev.gen}
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) Event { return e.schedule(t, fn, nil, 0) }

// Reschedule moves a still-pending event to absolute time t, keeping
// its callback. The event receives a fresh sequence number, so FIFO
// tie-breaking behaves exactly as if the event had been canceled and
// newly scheduled — but without leaving a canceled tombstone in the
// heap. It reports whether the move happened; a fired or canceled event
// is left untouched (schedule a new one instead). Like At, moving an
// event into the past panics.
func (e *Engine) Reschedule(h Event, t Time) bool {
	ev := h.live()
	if ev == nil {
		return false
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling event at %v before now %v", t, e.now)) //simlint:allow no-library-panic causality assertion: scheduling into the past is a model bug
	}
	ev.t = t
	ev.seq = e.seq
	e.seq++
	e.heap.fix(int(ev.idx))
	return true
}

// After schedules fn to run d after the current time. Negative d is
// treated as zero.
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Step executes the single next event, advancing the clock to its
// timestamp. It reports whether an event was executed (false when the
// queue is empty). The event is recycled before its callback runs, so
// the callback's own handle is already stale and its new schedules may
// reuse the event.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		ev := e.heap.pop()
		if ev.canceled {
			e.tomb--
			e.recycle(ev)
			continue
		}
		e.now = ev.t
		seq, fn, srv, service := ev.seq, ev.fn, ev.srv, ev.service
		e.recycle(ev)
		e.live--
		e.fired++
		if e.trace != nil {
			e.trace(e.now, seq)
		}
		if srv != nil {
			srv.finish(service, fn)
		} else {
			fn()
		}
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the
// clock to t (even if the queue emptied earlier).
func (e *Engine) RunUntil(t Time) {
	for {
		next := e.peek()
		if next == nil || next.t > t {
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
// cleared, and any trace hook removed.
// This is the warm-pool seam (internal/serve): a model stack built on a
// reset engine must reproduce a fresh engine's event-trace fingerprint
// bit for bit, because nothing — sequence numbers included — survives.
//
// Events still in the heap are recycled, so a stale Event handle held by
// old model code is permanently non-pending and its Cancel a no-op,
// rather than a corruption of the next run's live/tomb accounting. Up
// to resetKeep recycled events survive for the next run: they hold no
// callbacks and change no event order. The rest are released, so a
// pooled engine that once ran a deep queue does not keep that depth's
// events for the rest of its life.
func (e *Engine) Reset() {
	for _, ev := range e.heap {
		e.recycle(ev)
	}
	clear(e.heap[:cap(e.heap)])
	e.heap = e.heap[:0]
	if len(e.free) > resetKeep {
		e.free = append([]*event(nil), e.free[:resetKeep]...)
	}
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.live = 0
	e.tomb = 0
	e.trace = nil
}

// resetKeep is how many recycled events Reset keeps. A warm-pooled
// serve session ends with about 128 (DESIGN.md, "Engine events, handles
// and tombstones"), so the cap never costs a pooled session an
// allocation.
const resetKeep = 1024

// peek returns the earliest live event, popping and recycling any
// tombstones ahead of it, or nil when none is scheduled.
func (e *Engine) peek() *event {
	for len(e.heap) > 0 && e.heap[0].canceled {
		e.recycle(e.heap.pop())
		e.tomb--
	}
	if len(e.heap) == 0 {
		return nil
	}
	return e.heap[0]
}
