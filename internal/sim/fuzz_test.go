package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refEvent is one pending event of refEngine, the fuzzer's oracle.
type refEvent struct {
	t   Time
	seq uint64
	id  int
}

// refEngine is a from-scratch model of the Engine contract: a slice of
// pending events kept sorted by (time, seq), with the clock, sequence
// and fired counters the real engine exposes.
type refEngine struct {
	now     Time
	seq     uint64
	fired   uint64
	queue   []refEvent
	pending []bool     // by event id
	key     []refEvent // by event id: its queue entry while pending
}

func (r *refEngine) insert(t Time, id int) {
	ev := refEvent{t: t, seq: r.seq, id: id}
	r.seq++
	for len(r.pending) <= id {
		r.pending = append(r.pending, false)
		r.key = append(r.key, refEvent{})
	}
	r.pending[id] = true
	r.key[id] = ev
	i := r.search(ev)
	r.queue = append(r.queue, refEvent{})
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = ev
}

// search returns the index of the first queued event after ev.
func (r *refEngine) search(ev refEvent) int {
	return sort.Search(len(r.queue), func(i int) bool {
		q := r.queue[i]
		return q.t > ev.t || q.t == ev.t && q.seq > ev.seq
	})
}

// isPending reports whether event id is queued.
func (r *refEngine) isPending(id int) bool { return id >= 0 && id < len(r.pending) && r.pending[id] }

// remove drops id's pending event, if any.
func (r *refEngine) remove(id int) {
	if !r.isPending(id) {
		return
	}
	r.pending[id] = false
	i := r.search(r.key[id]) - 1
	r.queue = append(r.queue[:i], r.queue[i+1:]...)
}

// pop removes and returns the earliest pending event.
func (r *refEngine) pop() refEvent {
	ev := r.queue[0]
	r.queue = r.queue[1:]
	r.pending[ev.id] = false
	r.now = ev.t
	r.fired++
	return ev
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// Engine operations, one per opcode: each op is three bytes (opcode, a,
// b) of the fuzz input.
const (
	opAt = iota
	opAfter
	opCancel
	opReschedule
	opStep
	opRunUntil
	opReset
	opBurst
	numOps
)

// maxEngineOps bounds one fuzz run; the per-op handle check is linear
// in the events scheduled so far.
const maxEngineOps = 1024

// maxBurstEvents bounds the events opBurst schedules over one fuzz run:
// enough to fill the pending set past ringMin several times over.
const maxBurstEvents = 8 * ringMin

// burstDelay spreads burst event i over 32 binades of delay, from 1 ns
// to about 36 minutes, shifted by the op's second byte: the front of a
// burst lands in the ring's first buckets or the near heap, its tail in
// the far heap.
func burstDelay(i int, b byte) Time {
	return Time(1+(i*7919+int(b)*131)%1000) << ((5*i + int(b)) % 32)
}

// engineOps is one fuzz run: the real engine, its oracle, and per event
// id the handle At/After returned and the delay of the child event its
// callback schedules (-1 for none).
type engineOps struct {
	t       *testing.T
	e       *Engine
	r       refEngine
	handles []Event
	child   []Time
	fired   []int    // ids the real engine fired during the current op
	seqs    []uint64 // their sequence numbers, from the trace hook
}

// callback returns event id's callback: it records the fire, checks the
// event's own handle is already stale, and schedules the child, if any.
func (o *engineOps) callback(id int) func() {
	return func() {
		o.fired = append(o.fired, id)
		if h := o.handles[id]; h.Pending() || h.Cancel() || o.e.Reschedule(h, o.e.Now()) {
			o.t.Errorf("event %d: its handle is live inside its own callback", id)
		}
		if d := o.childOf(id); d >= 0 {
			o.add(o.e.After(d, o.callback(len(o.handles))), -1)
		}
	}
}

func (o *engineOps) childOf(id int) Time {
	if id < len(o.child) {
		return o.child[id]
	}
	return -1
}

func (o *engineOps) add(h Event, child Time) {
	o.handles = append(o.handles, h)
	o.child = append(o.child, child)
}

// refFire pops reference events up to limit (only the next one when
// one is set) and inserts the children their callbacks will schedule,
// numbered as the real callbacks will number them.
func (o *engineOps) refFire(limit Time, one bool) []refEvent {
	var popped []refEvent
	next := len(o.handles)
	for len(o.r.queue) > 0 && o.r.queue[0].t <= limit {
		ev := o.r.pop()
		popped = append(popped, ev)
		if d := o.childOf(ev.id); d >= 0 {
			o.r.insert(o.r.now+d, next)
			next++
		}
		if one {
			break
		}
	}
	return popped
}

// check compares everything observable after op n.
func (o *engineOps) check(n int, want []refEvent) {
	t, e, r := o.t, o.e, &o.r
	if len(o.fired) != len(want) {
		t.Fatalf("op %d: fired %v, want %d events %v", n, o.fired, len(want), want)
	}
	for i, ev := range want {
		if o.fired[i] != ev.id || o.seqs[i] != ev.seq {
			t.Fatalf("op %d: fire %d is event %d seq %d, want event %d seq %d", n, i, o.fired[i], o.seqs[i], ev.id, ev.seq)
		}
	}
	if e.Now() != r.now || e.Pending() != len(r.queue) || e.Fired() != r.fired {
		t.Fatalf("op %d: now %v pending %d fired %d, want %v %d %d", n, e.Now(), e.Pending(), e.Fired(), r.now, len(r.queue), r.fired)
	}
	at := make(map[int]Time, len(r.queue))
	for _, ev := range r.queue {
		at[ev.id] = ev.t
	}
	lane := 0
	for id, h := range o.handles {
		if h.Pending() != r.isPending(id) || h.Time() != at[id] {
			t.Fatalf("op %d: event %d pending %v at %v, want %v at %v", n, id, h.Pending(), h.Time(), r.isPending(id), at[id])
		}
		if h.Pending() && h.ev.tier == inLane {
			lane++
		}
	}
	// The set holds exactly the pending events outside the lane.
	if e.set.size() != len(r.queue)-lane {
		t.Fatalf("op %d: the pending set holds %d events, want %d", n, e.set.size(), len(r.queue)-lane)
	}
}

// pick maps a byte to a known handle, or to the zero handle (id -1).
func (o *engineOps) pick(a byte) (int, Event) {
	k := int(a) % (len(o.handles) + 1)
	if k == len(o.handles) {
		return -1, Event{}
	}
	return k, o.handles[k]
}

// runEngineOps replays ops on a real engine and on refEngine and fails
// on the first difference in fire order, sequence numbers, clock,
// counters, any return value, or any handle's Pending and Time.
func runEngineOps(t *testing.T, ops []byte) {
	if len(ops) > 3*maxEngineOps {
		ops = ops[:3*maxEngineOps]
	}
	o := &engineOps{t: t, e: NewEngine()}
	burst := 0
	trace := func(_ Time, seq uint64) { o.seqs = append(o.seqs, seq) }
	o.e.SetTrace(trace)
	for i := 0; i+2 < len(ops); i += 3 {
		n, op, a, b := i/3, ops[i]%numOps, ops[i+1], ops[i+2]
		o.fired, o.seqs = o.fired[:0], o.seqs[:0]
		var want []refEvent
		switch op {
		case opAt, opAfter:
			if a == 255 && o.r.now > 0 {
				if !panics(func() { o.e.At(o.r.now-1, func() {}) }) {
					t.Fatalf("op %d: At in the past did not panic", n)
				}
				break
			}
			child := Time(-1)
			if b&1 == 1 {
				child = Time(b >> 1)
			}
			at, fn := o.r.now+Time(a), o.callback(len(o.handles))
			var h Event
			if op == opAt {
				h = o.e.At(at, fn)
			} else {
				d := Time(int8(a)) // negative delays run now
				h = o.e.After(d, fn)
				at = o.r.now + max(d, 0)
			}
			o.add(h, child)
			o.r.insert(at, len(o.handles)-1)
		case opCancel:
			k, h := o.pick(a)
			pending := o.r.isPending(k)
			if got := h.Cancel(); got != pending {
				t.Fatalf("op %d: Cancel(%d) = %v, want %v", n, k, got, pending)
			}
			o.r.remove(k)
		case opReschedule:
			k, h := o.pick(a)
			pending := o.r.isPending(k)
			if b == 255 && o.r.now > 0 && pending {
				if !panics(func() { o.e.Reschedule(h, o.r.now-1) }) {
					t.Fatalf("op %d: Reschedule into the past did not panic", n)
				}
				break
			}
			at := o.r.now + Time(b)
			if got := o.e.Reschedule(h, at); got != pending {
				t.Fatalf("op %d: Reschedule(%d) = %v, want %v", n, k, got, pending)
			}
			if pending {
				o.r.remove(k)
				o.r.insert(at, k)
			}
		case opStep:
			wantOK := len(o.r.queue) > 0
			want = o.refFire(MaxTime, true)
			if got := o.e.Step(); got != wantOK {
				t.Fatalf("op %d: Step() = %v, want %v", n, got, wantOK)
			}
		case opRunUntil:
			limit := o.r.now + Time(a)
			want = o.refFire(limit, false)
			o.e.RunUntil(limit)
			o.r.now = limit
		case opReset:
			o.e.Reset()
			o.e.SetTrace(trace)
			o.r = refEngine{}
		case opBurst:
			// 64 to 2,048 events at spread delays; odd b gives each a
			// child 1 ns after it fires.
			child := Time(-1)
			if b&1 == 1 {
				child = 1
			}
			n := min(64*(1+int(a)%32), maxBurstEvents-burst)
			burst += n
			for i := 0; i < n; i++ {
				at := o.r.now + burstDelay(i, b)
				o.add(o.e.At(at, o.callback(len(o.handles))), child)
				o.r.insert(at, len(o.handles)-1)
			}
		}
		o.check(n, want)
	}
}

// FuzzEngineOps drives At, After, Cancel, Reschedule, Step, RunUntil,
// Reset and bursts of spread events in arbitrary order, with callbacks
// that schedule children and probe their own handles, against
// refEngine. Run it with
//
//	go test -run '^$' -fuzz FuzzEngineOps -fuzztime 30s ./internal/sim
//
// Plain go test runs the seed corpus below.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte{})
	// Ties, a cancel, a reschedule onto a tie, a step and a drain.
	f.Add([]byte{opAt, 5, 0, opAt, 5, 1, opAt, 3, 0, opCancel, 2, 0, opReschedule, 0, 5, opStep, 0, 0, opRunUntil, 200, 0})
	// Stale handles: fire, then reuse the event and poke the old handle.
	f.Add([]byte{opAt, 1, 0, opStep, 0, 0, opAt, 2, 0, opCancel, 0, 0, opReschedule, 0, 9, opRunUntil, 50, 0})
	// Past-scheduling panics, and a Reset with events still queued.
	f.Add([]byte{opAt, 10, 0, opRunUntil, 5, 0, opAt, 255, 0, opReschedule, 0, 255, opAt, 7, 3, opReset, 0, 0, opCancel, 0, 0, opAt, 1, 0, opStep, 0, 0})
	// Mass cancel: 80 of 90 heap events leave the heap and are
	// recycled, then reused.
	var mass []byte
	for i := 0; i < 90; i++ {
		mass = append(mass, opAt, byte(i), byte(i%3))
	}
	for i := 0; i < 80; i++ {
		mass = append(mass, opCancel, byte(i), 0)
	}
	mass = append(mass, opAfter, 0x90, 5, opRunUntil, 255, 0)
	f.Add(mass)
	// Reschedules inside a deep heap, later and earlier, then a drain.
	var deep []byte
	for i := 0; i < 40; i++ {
		deep = append(deep, opAt, byte(3*i), 0)
	}
	for i := 0; i < 40; i += 3 {
		deep = append(deep, opReschedule, byte(i), byte(250-5*i))
	}
	deep = append(deep, opRunUntil, 254, 0)
	f.Add(deep)
	// Same-instant children under a deep heap: at t=10 three events
	// schedule a child for now while two more wait in the heap for
	// t=10, which must fire before the children.
	var chain []byte
	for i := 0; i < 40; i++ {
		chain = append(chain, opAt, byte(20+5*i), 0)
	}
	chain = append(chain, opAt, 10, 1, opAt, 10, 1, opAt, 10, 1, opAt, 10, 0, opAt, 10, 0, opRunUntil, 255, 0)
	f.Add(chain)
	// Reschedules to now: a heap event due now and a future one move
	// into the lane, a lane event moves behind them and another out
	// to later, while a heap event due now still fires first.
	f.Add([]byte{opAt, 10, 0, opAt, 10, 0, opAt, 10, 0, opAt, 40, 0, opStep, 0, 0,
		opAt, 0, 0, opReschedule, 1, 0, opReschedule, 3, 0, opReschedule, 4, 0, opStep, 0, 0,
		opAt, 0, 1, opReschedule, 5, 9, opCancel, 3, 0, opStep, 0, 0, opStep, 0, 0, opRunUntil, 50, 0})
	// Random mixes, short and long.
	rnd := rand.New(rand.NewSource(1))
	for _, n := range []int{30, 300, 3000} {
		ops := make([]byte, n)
		rnd.Read(ops)
		f.Add(ops)
	}
	// Bursts past ringMin: the ring gets buckets, then events move
	// between the tiers by reschedule, leave buckets by cancel, fire
	// from loaded buckets, and a Reset clears a populated ring.
	var tiers []byte
	for _, b := range []byte{0, 7, 19} {
		tiers = append(tiers, opBurst, 31, b)
	}
	for i := 0; i < 60; i++ {
		tiers = append(tiers, opReschedule, byte(37*i), byte(11*i), opCancel, byte(53*i+1), 0, opStep, 0, 0)
	}
	tiers = append(tiers, opRunUntil, 255, 0, opBurst, 15, 3, opReset, 0, 0, opBurst, 20, 1, opRunUntil, 200, 0)
	f.Add(tiers)
	f.Fuzz(runEngineOps)
}
