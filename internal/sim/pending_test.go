package sim

import (
	"math/rand"
	"testing"
)

// noTier marks an event that is not pending, or not yet seen pending.
const noTier tier = 255

// deepRun drives an engine and refEngine through the same operations at
// a depth of about 20,000 pending events, and records which paths
// through the pending set's tiers the operations took.
type deepRun struct {
	t     *testing.T
	e     *Engine
	r     refEngine
	rnd   *rand.Rand
	h     []Event // by event id
	last  []tier  // by event id, its tier at the last scan
	fired []int   // ids fired by the current step
	seqs  []uint64

	moved    map[[2]tier]int // Reschedule moves by (from, to) tier
	seen     map[[2]tier]int // tier changes between two scans
	canceled map[tier]int    // cancels by tier
	geoms    int             // ring geometry changes
	ringOff  int             // rebuilds that took the ring's buckets away
	geom     [2]int          // the ring's buckets and bucket width at the last op
}

func newDeepRun(t *testing.T, seed int64) *deepRun {
	d := &deepRun{
		t: t, e: NewEngine(), rnd: rand.New(rand.NewSource(seed)),
		moved: map[[2]tier]int{}, seen: map[[2]tier]int{}, canceled: map[tier]int{},
	}
	d.e.SetTrace(func(_ Time, seq uint64) { d.seqs = append(d.seqs, seq) })
	return d
}

// delay draws a chaos-like delay: a millisecond-scale disk command, a
// scrub read due 68–137 s out, or a 30-minute batch pause.
func (d *deepRun) delay() Time {
	switch p := d.rnd.Intn(10); {
	case p < 6:
		return 1 + Time(d.rnd.Int63n(int64(10*Millisecond)))
	case p < 9:
		return 68*Second + Time(d.rnd.Int63n(int64(69*Second)))
	default:
		return 30*Minute + Time(d.rnd.Int63n(int64(Minute)))
	}
}

// tierOf returns where event id waits, or noTier once it is not pending.
func (d *deepRun) tierOf(id int) tier {
	if h := d.h[id]; h.Pending() {
		return h.ev.tier
	}
	return noTier
}

// at schedules a new event at t and returns its id.
func (d *deepRun) at(t Time) int {
	id := len(d.h)
	d.h = append(d.h, d.e.At(t, func() { d.fired = append(d.fired, id) }))
	d.last = append(d.last, noTier)
	d.r.insert(t, id)
	d.after("At")
	return id
}

// step fires the next event on both engines and compares them.
func (d *deepRun) step() {
	want := d.r.pop()
	d.fired, d.seqs = d.fired[:0], d.seqs[:0]
	if !d.e.Step() || len(d.fired) != 1 || d.fired[0] != want.id || d.seqs[0] != want.seq {
		d.t.Fatalf("step %d fired %v seqs %v, want event %d seq %d at %v", d.r.fired, d.fired, d.seqs, want.id, want.seq, want.t)
	}
	d.after("Step")
}

// reschedule moves pending event id to t on both engines.
func (d *deepRun) reschedule(id int, t Time) {
	from := d.tierOf(id)
	if !d.e.Reschedule(d.h[id], t) {
		d.t.Fatalf("Reschedule(%d) of a pending event failed", id)
	}
	d.moved[[2]tier{from, d.tierOf(id)}]++
	d.r.remove(id)
	d.r.insert(t, id)
	d.after("Reschedule")
}

// cancel cancels pending event id on both engines.
func (d *deepRun) cancel(id int) {
	from, size := d.tierOf(id), d.e.set.size()
	if !d.h[id].Cancel() {
		d.t.Fatalf("Cancel(%d) of a pending event failed", id)
	}
	if from != inLane && d.e.set.size() != size-1 {
		d.t.Fatalf("Cancel(%d) from tier %d left the set at %d events, want %d", id, from, d.e.set.size(), size-1)
	}
	d.canceled[from]++
	d.r.remove(id)
	d.after("Cancel")
}

// pending returns a random pending event id, or -1 after a few misses.
func (d *deepRun) pending() int {
	for range 16 {
		if id := d.rnd.Intn(len(d.h)); d.r.isPending(id) {
			return id
		}
	}
	return -1
}

// after checks the counters both engines expose and notes a change of
// the ring's geometry.
func (d *deepRun) after(op string) {
	e, r := d.e, &d.r
	if e.Now() != r.now || e.Pending() != len(r.queue) || e.Fired() != r.fired {
		d.t.Fatalf("after %s: now %v pending %d fired %d, want %v %d %d", op, e.Now(), e.Pending(), e.Fired(), r.now, len(r.queue), r.fired)
	}
	g := [2]int{len(e.set.ring), int(e.set.shift)}
	if g != d.geom {
		d.geoms++
		if g[0] == 0 && d.geom[0] > 0 {
			d.ringOff++
		}
		d.geom = g
	}
}

// scan checks every handle against the reference and notes each
// event's tier changes since the last scan.
func (d *deepRun) scan() {
	for id, h := range d.h {
		pending := d.r.isPending(id)
		if h.Pending() != pending || pending && h.Time() != d.r.key[id].t {
			d.t.Fatalf("event %d: pending %v at %v, want %v at %v", id, h.Pending(), h.Time(), pending, d.r.key[id].t)
		}
		cur := d.tierOf(id)
		if prev := d.last[id]; prev != noTier && cur != noTier && prev != cur {
			d.seen[[2]tier{prev, cur}]++
		}
		d.last[id] = cur
	}
}

// target returns a time the pending set files in tier to, if the
// geometry has one after now.
func (d *deepRun) target(to tier) (Time, bool) {
	s, now := &d.e.set, d.e.Now()
	top := Time(s.base << s.shift)
	var t Time
	switch to {
	case inLane:
		return now, true
	case inNear:
		t = now + 1
	case inRing:
		t = max(top, now+1)
	case inFar:
		t = Time((s.base+int64(len(s.ring)))<<s.shift) + 1
	}
	return t, t > now && s.tierOf(t) == to
}

// hold fires n events; each schedules a successor, and every 5th and
// 7th step also reschedules and cancels a random pending event.
func (d *deepRun) hold(n int) {
	for i := 0; i < n; i++ {
		d.step()
		d.at(d.e.Now() + d.delay())
		if id := d.pending(); i%5 == 0 && id >= 0 {
			d.reschedule(id, d.e.Now()+d.delay())
		}
		if id := d.pending(); i%7 == 0 && id >= 0 {
			d.cancel(id)
		}
		if i%1000 == 0 {
			d.scan()
		}
	}
}

// TestPendingSetMatchesReference checks the tiered pending set against
// refEngine's sorted slice at chaos-week's depth: about 20,000 pending
// events at chaos-like delays, fabric-like reschedule storms, a
// Reschedule across every pair of tiers and into the lane, cancels from
// the near heap, the buckets and the far heap, and a Reset with a populated ring. Every
// step must fire the same event with the same sequence number, and every
// handle must agree on Pending and Time.
func TestPendingSetMatchesReference(t *testing.T) {
	d := newDeepRun(t, 34)
	for range 20000 {
		d.at(d.delay())
	}
	if len(d.e.set.ring) == 0 || d.e.set.inRing == 0 {
		t.Fatalf("20,000 events but the ring has %d buckets holding %d", len(d.e.set.ring), d.e.set.inRing)
	}
	d.scan()
	d.hold(10000)

	// Reschedule across every pair of tiers: the lane's events are
	// fresh At(now)s, the others are found by tier.
	tiers := []tier{inLane, inNear, inRing, inFar}
	for _, from := range tiers {
		for _, to := range tiers {
			for try := 0; d.moved[[2]tier{from, to}] == 0; try++ {
				if try == 100 {
					t.Fatalf("found no Reschedule from tier %d to tier %d", from, to)
				}
				d.step()
				tt, ok := d.target(to)
				if !ok {
					continue
				}
				id := -1
				if from == inLane {
					id = d.at(d.e.Now())
				} else {
					for i := range d.h {
						if d.tierOf(i) == from {
							id = i
							break
						}
					}
				}
				if id >= 0 {
					d.reschedule(id, tt)
				}
			}
		}
	}

	// Fabric-like storms: 2,000 pending events at a time move to
	// completions a few milliseconds apart, then the storm drains.
	for range 5 {
		for range 2000 {
			if id := d.pending(); id >= 0 {
				d.reschedule(id, d.e.Now()+Millisecond+Time(d.rnd.Int63n(int64(5*Millisecond))))
			}
		}
		d.hold(2000)
	}
	d.scan()

	// Cancels inside buckets, then every near and far event: each
	// leaves its tier at once.
	for id := range d.h {
		if d.tierOf(id) == inRing && d.canceled[inRing] < 500 {
			d.cancel(id)
		}
	}
	for id := range d.h {
		if tr := d.tierOf(id); tr == inNear || tr == inFar {
			d.cancel(id)
		}
	}
	d.hold(2000)
	d.scan()

	// Reset with a populated ring: every old handle goes stale, and a
	// fresh run on the reset engine still matches.
	if d.e.set.inRing == 0 {
		t.Fatal("the ring is empty before Reset")
	}
	d.e.Reset()
	d.e.SetTrace(func(_ Time, seq uint64) { d.seqs = append(d.seqs, seq) })
	d.r = refEngine{}
	for id, h := range d.h {
		if h.Pending() {
			t.Fatalf("event %d is pending after Reset", id)
		}
	}
	d.h, d.last = d.h[:0], d.last[:0]
	for range 5000 {
		d.at(d.delay())
	}
	d.hold(5000)
	// Drain through the shrinking rebuilds, every other step scheduling
	// a successor within a few buckets of now: into near, in front of
	// events a rebuild left there, and into the ring's first buckets.
	for i := 0; len(d.r.queue) > 0; i++ {
		d.step()
		if i%2 == 0 {
			d.at(d.e.Now() + 1 + Time(d.rnd.Int63n(4<<d.e.set.shift)))
		}
	}
	d.scan()

	for _, from := range tiers {
		for _, to := range tiers {
			if d.moved[[2]tier{from, to}] == 0 {
				t.Errorf("no Reschedule from tier %d to tier %d", from, to)
			}
		}
	}
	for _, c := range []struct {
		what string
		n    int
	}{
		{"bucket loads (ring -> near)", d.seen[[2]tier{inRing, inNear}]},
		{"far-to-ring migrations", d.seen[[2]tier{inFar, inRing}]},
		{"cancels in a bucket", d.canceled[inRing]},
		{"cancels from near", d.canceled[inNear]},
		{"cancels from far", d.canceled[inFar]},
		{"geometry rebuilds", d.geoms},
		{"rebuilds that emptied the ring", d.ringOff},
	} {
		if c.n == 0 {
			t.Errorf("the run made no %s", c.what)
		}
	}
}

// TestPendingSetRebuildKeepsNearFirst coarsens the ring while the near
// heap still holds an event: a rebuild that quarters the ring's buckets
// widens them, and its new top must not fall behind the old one, or an
// event scheduled just after now would wait in the ring behind the near
// heap's later event. Events come in triples 2 ns apart, so a loaded
// bucket leaves two in near; the leading steps vary where the loaded
// bucket falls against the wider buckets' edges.
func TestPendingSetRebuildKeepsNearFirst(t *testing.T) {
	coarsened := 0
	for lead := 0; lead < 4; lead++ {
		d := newDeepRun(t, int64(lead))
		for i := 0; i < 4200; i++ { // the last rebuild is at 4,097
			d.at(Time(1+i/3)*Microsecond + Time(i%3)*2)
		}
		for range 1 + 3*lead {
			d.step()
		}
		// Cancel two in three ring events, evenly, so the next step
		// rebuilds for a third of the events over the same horizons.
		for id := range d.h {
			if d.tierOf(id) == inRing && id%3 != 0 {
				d.cancel(id)
			}
		}
		shift := d.e.set.shift
		d.step()
		if d.e.set.shift > shift && len(d.e.set.near) > 0 {
			coarsened++
		}
		d.at(d.e.Now() + 1)
		for len(d.r.queue) > 0 {
			d.step()
		}
	}
	if coarsened == 0 {
		t.Fatal("no rebuild widened the buckets while near held an event")
	}
}

// TestPendingWorkPinned pins the pending set's work counts for the hold
// model at chaos-week's depth: 20,000 standing events, each fired event
// scheduling a successor at an exponential delay (mean 1 ms), for
// 100,000 steps. The counts are a function of the schedule alone, so a
// change to the set's geometry that does more or less work moves them
// exactly; such a change re-pins them and says why. Reset clears them.
func TestPendingWorkPinned(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	e := NewEngine()
	var fire func()
	fire = func() { e.After(1+Time(r.ExpFloat64()*float64(Millisecond)), fire) }
	for range 20000 {
		fire()
	}
	for range 100000 {
		e.Step()
	}
	w := e.PendingWork()
	want := PendingWork{Near: 1029, Ring: 150013, Far: 1823, Loads: 36037, Rebuilds: 5}
	if w != want {
		t.Errorf("hold model at 20,000: %+v, want %+v", w, want)
	}
	e.Reset()
	if w := e.PendingWork(); w != (PendingWork{}) {
		t.Errorf("after Reset: %+v, want zero", w)
	}
}

// TestFirstEventFiledNear: a fresh engine and a Reset one start from the
// same empty set, so the first event goes straight into near, with
// nothing filed into far and no rebuild. The event is at MaxTime, whose
// bucket lies below noRing only with the empty set's 2 ns buckets.
func TestFirstEventFiledNear(t *testing.T) {
	for _, state := range []string{"fresh", "reset"} {
		e := NewEngine()
		if state == "reset" {
			for range 2 * ringMin {
				e.After(Second, func() {})
			}
			e.Run()
			e.Reset()
		}
		fired := false
		e.At(MaxTime, func() { fired = true })
		if w, want := e.PendingWork(), (PendingWork{Near: 1}); w != want {
			t.Errorf("%s engine, first event: %+v, want %+v", state, w, want)
		}
		if e.Run(); !fired {
			t.Errorf("%s engine: the event at MaxTime did not fire", state)
		}
	}
}
