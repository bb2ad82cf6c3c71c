package sim

import "fmt"

// Event is a handle to a scheduled callback, returned by Engine.At and
// Engine.After. It is a small value: copy it freely. The engine recycles
// the event behind a handle once it fires, is canceled, or is dropped by
// Reset; a generation number in the handle tells the uses of one event
// apart, so a handle outlives its event safely: Cancel, Reschedule and
// Pending on a fired, canceled or pre-Reset handle are no-ops that
// report false, even when the engine has since reused the event for
// another callback. The zero Event is a valid handle that is never
// pending.
type Event struct {
	ev  *event
	gen uint64
}

// event is the engine's recycled record of one scheduled callback. A
// sim.Server completion is data, not a closure: the server rides in
// srv, and fn is the job's own done.
// The fields fit an 80-byte allocation class.
type event struct {
	t          Time
	seq        uint64
	fn         func()
	srv        *Server
	eng        *Engine
	gen        uint64 // bumped each time the event is recycled
	next, prev *event // neighbours in a ring bucket
	idx        int32  // position in the near or far heap
	tier       tier   // where the event waits (pending.go), or inFree
}

// laneSlot is one entry of the same-instant lane: an event and the
// sequence number it was queued under. Reschedule gives the event a new
// seq and Cancel recycles it, so an entry is stale unless its event still
// waits in the lane under its seq; a stale entry is dropped when it
// reaches the front.
type laneSlot struct {
	ev  *event
	seq uint64
}

// current reports whether the entry's event still waits in the lane
// under the entry's seq.
func (sl laneSlot) current() bool { return sl.ev.tier == inLane && sl.ev.seq == sl.seq }

// live returns the handle's event if it is still pending, else nil.
func (h Event) live() *event {
	if h.ev == nil || h.ev.gen != h.gen {
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
// still pending. A canceled event leaves the pending set at once, O(1)
// from a ring bucket and O(log n) from the near or far heap, and is
// recycled; a canceled same-instant lane event is recycled too, and its
// lane entry, now stale, is dropped when it reaches the front.
func (h Event) Cancel() bool {
	ev := h.live()
	if ev == nil {
		return false
	}
	e := ev.eng
	if ev.tier != inLane {
		e.set.remove(ev)
	}
	e.live--
	e.recycle(ev)
	return true
}

// Pending reports whether the event is still waiting to fire.
func (h Event) Pending() bool { return h.live() != nil }

func (a *event) before(b *event) bool {
	return a.t < b.t || a.t == b.t && a.seq < b.seq
}

// Engine is a discrete-event simulation executive. Events scheduled for
// the same instant fire in scheduling order (FIFO tie-break), which makes
// runs deterministic — provided model code schedules events in a
// deterministic order (in particular, never from Go map iteration; see
// the determinism contract in DESIGN.md).
//
// An event scheduled for the current instant skips the pending set and
// waits in the same-instant lane, a FIFO ring. The pop order is still
// (t, seq): an event enters the set at time T only while now < T and the
// lane only while now == T, and seq only grows, so every set event at
// now precedes every lane event, and every lane event precedes every
// later set event.
//
// Engine is not safe for concurrent use; all model code must run on the
// goroutine driving Run/Step. Parallel harnesses (internal/sweep) give
// each worker engines of its own.
type Engine struct {
	now   Time
	seq   uint64
	set   pendingSet      // events due after now, or at now but scheduled before it
	lane  Queue[laneSlot] // events scheduled for the instant now
	fired uint64
	live  int // scheduled, uncanceled, unfired events in the set and lane
	peak  int // the most events live at once
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

// Pending returns the number of events still scheduled: neither fired
// nor canceled. Pending() == 0 means the engine has no work.
//
//simlint:allow test-only-export read-only accessor the engine tests assert a drained queue with
func (e *Engine) Pending() int { return e.live }

// PeakPending returns the most events that were pending at once since
// the engine was built or last Reset: the depth its pending set had to
// hold. It observes and changes nothing.
func (e *Engine) PeakPending() int { return e.peak }

// PendingWork returns the pending set's work since the engine was built
// or last Reset. It observes and changes nothing.
func (e *Engine) PendingWork() PendingWork {
	s := &e.set
	return PendingWork{
		Near: s.filed[inNear], Ring: s.filed[inRing], Far: s.filed[inFar],
		Loads: s.loads, Rebuilds: s.rebuilds,
	}
}

// recycle retires ev: the generation bump turns every handle to it
// stale, inFree makes every lane entry for it stale, and the event joins
// the free list for reuse. Within a run the set and the free list
// together hold at most the deepest set's events, so stale heap slots
// pin nothing that is not already kept.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.srv = nil
	ev.tier = inFree
	e.free = append(e.free, ev)
}

// schedule queues a callback at t: fn, or srv.finish(fn) when srv is
// set. It reuses a recycled event when one is free.
func (e *Engine) schedule(t Time, fn func(), srv *Server) Event {
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
	ev.t, ev.seq, ev.fn, ev.srv = t, e.seq, fn, srv
	e.seq++
	e.live++
	if e.live > e.peak {
		e.peak = e.live
	}
	e.enqueue(ev)
	return Event{ev: ev, gen: ev.gen}
}

// enqueue puts ev in the same-instant lane when it is due now, else in
// the pending set, resizing the set's ring when it outgrows it.
func (e *Engine) enqueue(ev *event) {
	if ev.t == e.now {
		ev.tier = inLane
		e.lane.Push(laneSlot{ev: ev, seq: ev.seq})
		return
	}
	e.set.add(ev)
	if e.set.size() > e.set.grow {
		e.rebuild()
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) Event { return e.schedule(t, fn, nil) }

// Reschedule moves a still-pending event to absolute time t, keeping
// its callback. The event receives a fresh sequence number, so FIFO
// tie-breaking behaves exactly as if the event had been canceled and
// newly scheduled, but the handle stays valid. It reports whether the
// move happened; a fired or canceled event is left untouched (schedule a
// new one instead). Like At, moving an event into the past panics.
func (e *Engine) Reschedule(h Event, t Time) bool {
	ev := h.live()
	if ev == nil {
		return false
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling event at %v before now %v", t, e.now)) //simlint:allow no-library-panic causality assertion: scheduling into the past is a model bug
	}
	ev.seq = e.seq
	e.seq++
	if ev.tier != inLane {
		if ev.tier != inRing && t != e.now && e.set.tierOf(t) == ev.tier {
			ev.t = t
			e.set.heap(ev.tier).fix(int(ev.idx))
			return true
		}
		e.set.remove(ev)
	}
	// A lane event leaves its old ring entry behind, stale on the new seq.
	ev.t = t
	e.enqueue(ev)
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
	ev := e.peek()
	if ev == nil {
		return false
	}
	if ev.tier == inLane {
		e.lane.Pop()
	} else {
		e.set.near.pop()
	}
	if e.set.size() < e.set.shrink {
		e.rebuild()
	}
	e.now = ev.t
	seq, fn, srv := ev.seq, ev.fn, ev.srv
	e.recycle(ev)
	e.live--
	e.fired++
	if e.trace != nil {
		e.trace(e.now, seq)
	}
	if srv != nil {
		srv.finish(fn)
	} else {
		fn()
	}
	return true
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
// zero, no scheduled events, counters cleared, and any trace hook
// removed.
// This is the warm-pool seam (internal/serve): a model stack built on a
// reset engine must reproduce a fresh engine's event-trace fingerprint
// bit for bit, because nothing — sequence numbers included — survives.
//
// Events still in the pending set or lane are recycled, so a stale
// Event handle held by old model code is permanently non-pending and its
// Cancel a no-op, rather than a corruption of the next run's live-event
// count. Up to resetKeep recycled events, and a ring of up to
// resetKeep buckets, survive for the next run: they hold no callbacks
// and change no event order. The rest are released, so a pooled engine
// that once ran a deep queue does not keep that depth's events or
// buckets for the rest of its life.
func (e *Engine) Reset() {
	s := &e.set
	for _, h := range [...]*eventHeap{&s.near, &s.far} {
		for _, ev := range *h {
			e.recycle(ev)
		}
		clear((*h)[:cap(*h)])
		*h = (*h)[:0]
	}
	for ev := s.takeRing(); ev != nil; {
		next := ev.next
		ev.next = nil
		e.recycle(ev)
		ev = next
	}
	ring, occ := s.ring[:0], s.occ[:0]
	if cap(ring) > resetKeep {
		ring, occ = nil, nil
	}
	e.set = pendingSet{near: s.near, far: s.far, ring: ring, occ: occ}
	// Pop zeroes each slot it empties. A stale entry's event sits in
	// the free list already, so only current entries recycle.
	for e.lane.Len() > 0 {
		if sl, _ := e.lane.Pop(); sl.current() {
			e.recycle(sl.ev)
		}
	}
	if len(e.free) > resetKeep {
		e.free = append([]*event(nil), e.free[:resetKeep]...)
	}
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.live = 0
	e.peak = 0
	e.trace = nil
}

// resetKeep is how many recycled events Reset keeps. A warm-pooled
// serve session ends with about 128 (DESIGN.md, "Engine events, handles
// and cancels"), so the cap never costs a pooled session an
// allocation.
const resetKeep = 1024

// peek returns the earliest pending event, dropping any stale lane
// entries ahead of it, or nil when none is scheduled. The set's events
// at now come first, then the lane's, then the set's later ones.
func (e *Engine) peek() *event {
	next := e.set.first()
	if next != nil && next.t == e.now {
		return next
	}
	for e.lane.Len() > 0 {
		if s, _ := e.lane.Front(); s.current() {
			return s.ev
		}
		e.lane.Pop()
	}
	return next
}
