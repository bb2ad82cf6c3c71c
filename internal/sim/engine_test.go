package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("got %v, want %v", got, want)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
		e.After(0, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 10 || fired[2] != 15 {
		t.Fatalf("fired = %v, want [10 10 15]", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(10, func() { ran = true })
	if !ev.Pending() {
		t.Fatal("event should be pending")
	}
	if !ev.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if ev.Cancel() {
		t.Fatal("second cancel should fail")
	}
	e.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
}

func TestEngineScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v events, want 2", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("clock = %v, want 12", e.Now())
	}
	e.RunFor(8)
	if len(fired) != 4 || e.Now() != 20 {
		t.Fatalf("after RunFor: fired=%v now=%v", fired, e.Now())
	}
}

// Cancel takes an event out of its tier at once: after 10 of 100
// events are canceled in the near heap, and then in the far heap, the
// heap holds exactly the 90 live events and Pending counts them.
func TestEnginePendingExcludesCanceled(t *testing.T) {
	// checkHeap asserts h holds exactly the events behind live.
	checkHeap := func(t *testing.T, e *Engine, h eventHeap, live []Event) {
		t.Helper()
		in := map[*event]bool{}
		for _, ev := range h {
			in[ev] = true
		}
		for _, l := range live {
			if !l.Pending() || !in[l.ev] {
				t.Fatal("a live event left the heap")
			}
		}
		if len(h) != len(live) || len(in) != len(live) {
			t.Fatalf("the heap holds %d events, want the %d live ones", len(h), len(live))
		}
	}
	// cancelTenth cancels every tenth of hs, which must all wait in tr,
	// and returns the others.
	cancelTenth := func(t *testing.T, hs []Event, tr tier) []Event {
		t.Helper()
		var live []Event
		for i, h := range hs {
			if h.ev.tier != tr {
				t.Fatalf("event %d waits in tier %d, want %d", i, h.ev.tier, tr)
			}
			if i%10 == 0 {
				if !h.Cancel() {
					t.Fatalf("Cancel of pending event %d failed", i)
				}
				continue
			}
			live = append(live, h)
		}
		return live
	}

	t.Run("near", func(t *testing.T) {
		e := NewEngine()
		hs := make([]Event, 100)
		for i := range hs {
			hs[i] = e.At(Time(i+1), func() {})
		}
		live := cancelTenth(t, hs, inNear)
		checkHeap(t, e, e.set.near, live)
		if e.Pending() != 90 || e.set.size() != 90 {
			t.Fatalf("pending %d, set %d after cancels; want 90, 90", e.Pending(), e.set.size())
		}
		e.Run()
		if e.Fired() != 90 || e.Now() != 100 {
			t.Fatalf("fired %d, now %v; want 90, 100", e.Fired(), e.Now())
		}
	})

	t.Run("far", func(t *testing.T) {
		// 2,000 events a microsecond apart give the set a ring; events
		// an hour out wait past it in far.
		e := NewEngine()
		for i := 1; i <= 2000; i++ {
			e.At(Time(i)*Microsecond, func() {})
		}
		hs := make([]Event, 100)
		for i := range hs {
			hs[i] = e.At(Hour+Time(i), func() {})
		}
		live := cancelTenth(t, hs, inFar)
		checkHeap(t, e, e.set.far, live)
		if e.Pending() != 2090 || e.set.size() != 2090 {
			t.Fatalf("pending %d, set %d after cancels; want 2090, 2090", e.Pending(), e.set.size())
		}
		e.Run()
		if e.Fired() != 2090 || e.Now() != Hour+99 {
			t.Fatalf("fired %d, now %v; want 2090, %v", e.Fired(), e.Now(), Hour+99)
		}
	})
}

// A burst of cancels must not disturb pop order: interleave schedules
// and cancels, then cancel a burst that outnumbers the live events, and
// check the survivors fire in (time, seq) order with the same trace as
// a twin without the burst.
func TestEngineCancelBurstPreservesOrder(t *testing.T) {
	run := func(burst bool) (order []Time, trace uint64) {
		e := NewEngine()
		th := NewTraceHash()
		e.SetTrace(th.Observe)
		for i := 0; i < 500; i++ {
			at := Time((i * 37) % 251)
			e.At(at, func() { order = append(order, at) })
			if i%2 == 0 {
				e.At(at+1, func() {}).Cancel()
			}
		}
		if burst {
			// Cancel more events than stay live.
			var evs []Event
			for i := 0; i < 2000; i++ {
				evs = append(evs, e.At(Time(i), func() {}))
			}
			for _, ev := range evs {
				ev.Cancel()
			}
		}
		e.Run()
		return order, th.Sum()
	}
	gotOrder, gotTrace := run(true)
	wantOrder, wantTrace := run(false)
	if gotTrace != wantTrace {
		t.Fatalf("trace diverged under a cancel burst: %x vs %x", gotTrace, wantTrace)
	}
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("fired %d events, want %d", len(gotOrder), len(wantOrder))
	}
	for i := range gotOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("order[%d] = %v, want %v", i, gotOrder[i], wantOrder[i])
		}
	}
}

// Cancel and Reschedule invoked from inside a firing callback: the
// in-flight event was recycled before its callback ran, so its handle is
// stale and both must refuse it, while other pending events stay fully
// mutable.
func TestEngineCancelRescheduleFromCallback(t *testing.T) {
	e := NewEngine()
	var self, other Event
	otherRan := false
	movedRan := Time(0)
	moved := e.At(30, func() { movedRan = e.Now() })
	other = e.At(40, func() { otherRan = true })
	self = e.At(10, func() {
		if self.Cancel() {
			t.Error("Cancel succeeded on the firing event")
		}
		if e.Reschedule(self, 50) {
			t.Error("Reschedule succeeded on the firing event")
		}
		if !other.Cancel() {
			t.Error("Cancel failed on a pending event")
		}
		if !e.Reschedule(moved, 60) {
			t.Error("Reschedule failed on a pending event")
		}
		if e.Pending() != 1 {
			t.Errorf("pending = %d inside callback, want 1 (moved)", e.Pending())
		}
	})
	e.Run()
	if otherRan {
		t.Fatal("canceled event fired")
	}
	if movedRan != 60 {
		t.Fatalf("rescheduled event fired at %v, want 60", movedRan)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after run, want 0", e.Pending())
	}
}

// Property: events fire in nondecreasing timestamp order regardless of
// insertion order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(stamps []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, s := range stamps {
			at := Time(s)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(stamps) {
			return false
		}
		sorted := append([]Time(nil), fired...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved schedule/cancel keeps exactly the non-canceled
// events firing.
func TestEngineCancelProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		e := NewEngine()
		fired := map[int]bool{}
		var evs []Event
		canceled := map[int]bool{}
		n := 200
		for i := 0; i < n; i++ {
			i := i
			evs = append(evs, e.At(Time(rnd.Intn(1000)), func() { fired[i] = true }))
		}
		for i := 0; i < n/3; i++ {
			k := rnd.Intn(n)
			if evs[k].Cancel() {
				canceled[k] = true
			}
		}
		e.Run()
		for i := 0; i < n; i++ {
			if canceled[i] && fired[i] {
				t.Fatalf("canceled event %d fired", i)
			}
			if !canceled[i] && !fired[i] {
				t.Fatalf("live event %d did not fire", i)
			}
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
		{90 * Second, "1.50min"},
		{3 * Hour, "3.00h"},
		{-2 * Second, "-2.000s"},
		{math.MinInt64, "-2562047.79h"},
		{MaxTime, "2562047.79h"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if FromSeconds(-3) != 0 || FromSeconds(math.NaN()) != 0 {
		t.Fatal("negative and NaN seconds should clamp to 0")
	}
	// Beyond ~292 years the nanosecond count no longer fits: saturate
	// instead of wrapping to a negative time.
	for _, s := range []float64{1e10, 1e12, math.Inf(1)} {
		if got := FromSeconds(s); got != MaxTime {
			t.Errorf("FromSeconds(%g) = %d, want MaxTime", s, int64(got))
		}
	}
}

// runTracedModel drives a small model with cancels, ties, and nested
// scheduling on e and returns its trace fingerprint. Used to compare a
// fresh engine against a reset-and-reused one.
func runTracedModel(e *Engine, seed int) uint64 {
	th := NewTraceHash()
	e.SetTrace(th.Observe)
	r := rand.New(rand.NewSource(int64(seed)))
	var evs []Event
	for i := 0; i < 200; i++ {
		evs = append(evs, e.At(Time(r.Intn(50)), func() {}))
	}
	for i := 0; i < 50; i++ {
		evs[r.Intn(len(evs))].Cancel()
	}
	e.At(60, func() {
		e.After(5, func() {})
		e.After(0, func() {})
	})
	e.Run()
	return th.Sum()
}

func TestEngineResetDeterministicReuse(t *testing.T) {
	fresh := runTracedModel(NewEngine(), 7)

	// Dirty an engine thoroughly — a run halted mid-queue, pending
	// events, trace hook, canceled events — then Reset and rerun the same model.
	e := NewEngine()
	e.SetTrace(func(Time, uint64) {})
	for i := 0; i < 100; i++ {
		e.At(Time(i), func() {})
	}
	stale := e.At(500, func() { t.Error("stale pre-reset event fired") })
	e.RunUntil(10)

	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Fired() != 0 {
		t.Fatalf("reset engine not pristine: now=%v pending=%d fired=%d",
			e.Now(), e.Pending(), e.Fired())
	}
	if stale.Pending() {
		t.Fatal("pre-reset event still pending after Reset")
	}
	if stale.Cancel() {
		t.Fatal("canceling a pre-reset event should be a no-op")
	}

	reused := runTracedModel(e, 7)
	if reused != fresh {
		t.Fatalf("reset-and-reused trace %#x != fresh trace %#x", reused, fresh)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after reuse run", e.Pending())
	}
}

func TestEngineResetStaleCancelDoesNotCorruptCounters(t *testing.T) {
	e := NewEngine()
	stale := e.At(10, func() {})
	e.Reset()
	stale.Cancel() // must not decrement the new run's live count
	ev := e.At(5, func() {})
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	_ = ev
	e.Run()
	if e.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", e.Fired())
	}
}

func TestEngineRunForOverflowSaturates(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	fired := false
	e.At(200, func() { fired = true })
	// now + MaxTime would wrap to a negative horizon; the guard must
	// saturate instead, fire the pending event, and park the clock at
	// MaxTime.
	e.RunFor(MaxTime)
	if !fired {
		t.Fatal("pending event stranded behind a wrapped horizon")
	}
	if e.Now() != MaxTime {
		t.Fatalf("clock = %v, want MaxTime", e.Now())
	}
	// Negative d clamps to zero rather than rewinding.
	e.RunFor(-5)
	if e.Now() != MaxTime {
		t.Fatalf("clock moved on negative RunFor: %v", e.Now())
	}
}

// A handle outlives its event: once the event fired, was canceled from
// any tier, or was dropped by Reset, the engine reuses it for the next
// callback scheduled. The old handle must then neither cancel,
// reschedule nor report pending on the event now behind it.
func TestEngineStaleHandles(t *testing.T) {
	// checkStale asserts old is dead while cur, scheduled on the same
	// recycled event at time at, stays live and untouched.
	checkStale := func(t *testing.T, e *Engine, old, cur Event, at Time) {
		t.Helper()
		if old.ev != cur.ev {
			t.Fatal("the new event did not reuse the recycled one")
		}
		if old.Pending() || old.Time() != 0 {
			t.Errorf("stale handle: pending %v, time %v; want false, 0", old.Pending(), old.Time())
		}
		if old.Cancel() || e.Reschedule(old, at+100) {
			t.Error("stale handle canceled or rescheduled the recycled event")
		}
		if !cur.Pending() || cur.Time() != at {
			t.Errorf("recycled event: pending %v, time %v; want true, %v", cur.Pending(), cur.Time(), at)
		}
	}
	var zero Event
	if zero.Pending() || zero.Cancel() || zero.Time() != 0 || NewEngine().Reschedule(zero, 1) {
		t.Fatal("the zero Event must be a never-pending no-op handle")
	}

	t.Run("fired", func(t *testing.T) {
		e := NewEngine()
		fired := e.At(10, func() {})
		e.Step()
		cur := e.At(20, func() {})
		checkStale(t, e, fired, cur, 20)
	})

	// Canceled from each tier, the event is recycled at once: the next
	// At reuses it. 2,000 standing events a microsecond apart give the
	// set a ring; in the lane, the reused event queues behind the
	// canceled one's stale entry, which must fire nothing.
	for _, c := range []struct {
		name      string
		standing  int
		at, reuse Time
		tr        tier
	}{
		{"canceled-near", 0, 10, 20, inNear},
		{"canceled-ring", 2000, 1000 * Microsecond, 1500 * Microsecond, inRing},
		{"canceled-far", 2000, Hour, 2 * Hour, inFar},
		{"canceled-lane", 0, 0, 0, inLane},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			for i := 1; i <= c.standing; i++ {
				e.At(Time(i)*Microsecond, func() {})
			}
			dead := e.At(c.at, func() { t.Error("canceled event fired") })
			if dead.ev.tier != c.tr || !dead.Cancel() {
				t.Fatalf("could not cancel an event in tier %d", c.tr)
			}
			cur := e.At(c.reuse, func() {})
			checkStale(t, e, dead, cur, c.reuse)
			e.Run()
			if e.Fired() != uint64(c.standing+1) || e.lane.Len() != 0 {
				t.Fatalf("fired %d, lane %d; want %d, 0", e.Fired(), e.lane.Len(), c.standing+1)
			}
		})
	}

	t.Run("reset", func(t *testing.T) {
		e := NewEngine()
		before := e.At(10, func() { t.Error("pre-Reset event fired") })
		e.Reset()
		cur := e.At(5, func() {})
		checkStale(t, e, before, cur, 5)
		if e.Pending() != 1 {
			t.Fatalf("pending = %d, want 1", e.Pending())
		}
		e.Run()
		if e.Fired() != 1 || e.Now() != 5 {
			t.Fatalf("fired %d, now %v; want 1, 5", e.Fired(), e.Now())
		}
	})
}

// TestEngineSameInstantLane covers the same-instant lane: an event due
// at the current instant waits in a FIFO ring instead of the heap, and
// the engine must still fire every event in (time, seq) order, keep
// handles and counters exact, and leave nothing behind on Reset.
func TestEngineSameInstantLane(t *testing.T) {
	// logger returns a log of fired names and a callback factory for it.
	logger := func() (*[]string, func(string) func()) {
		var got []string
		return &got, func(name string) func() { return func() { got = append(got, name) } }
	}
	wantOrder := func(t *testing.T, got []string, want ...string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}

	t.Run("heap-at-now-first", func(t *testing.T) {
		// a and b wait in the heap for t=10; a's child, scheduled at
		// t=10 for t=10, has a larger seq than b, so b fires first.
		e := NewEngine()
		got, rec := logger()
		e.At(10, func() {
			*got = append(*got, "a")
			e.After(0, rec("a-child"))
		})
		e.At(10, rec("b"))
		e.At(11, rec("c"))
		e.Run()
		wantOrder(t, *got, "a", "b", "a-child", "c")
	})

	t.Run("heap-rescheduled-to-now", func(t *testing.T) {
		e := NewEngine()
		got, rec := logger()
		var moved Event
		e.At(10, func() {
			*got = append(*got, "a")
			if !e.Reschedule(moved, e.Now()) {
				t.Error("Reschedule of a heap event to now failed")
			}
			if !moved.Pending() || moved.Time() != 10 || e.set.size() != 1 {
				t.Errorf("moved: pending %v at %v, heap %d; want true at 10, heap 1", moved.Pending(), moved.Time(), e.set.size())
			}
		})
		e.At(10, rec("b"))
		moved = e.At(50, rec("moved"))
		e.Run()
		wantOrder(t, *got, "a", "b", "moved")
		if e.Now() != 10 || e.Pending() != 0 {
			t.Fatalf("now %v, pending %d; want 10, 0", e.Now(), e.Pending())
		}
	})

	t.Run("lane-rescheduled", func(t *testing.T) {
		e := NewEngine()
		got, rec := logger()
		e.At(10, func() {
			l1 := e.After(0, rec("l1"))
			l2 := e.After(0, rec("l2"))
			e.After(0, rec("l3"))
			if !e.Reschedule(l1, e.Now()) || !e.Reschedule(l2, e.Now()+5) {
				t.Error("Reschedule of a lane event failed")
			}
			if l1.Time() != 10 || l2.Time() != 15 || e.Pending() != 3 {
				t.Errorf("l1 at %v, l2 at %v, pending %d; want 10, 15, 3", l1.Time(), l2.Time(), e.Pending())
			}
		})
		e.Run()
		// l1 moved behind l3; l2 left the instant. Their stale ring
		// entries fire nothing.
		wantOrder(t, *got, "l3", "l1", "l2")
		if e.Fired() != 4 || e.Now() != 15 || e.lane.Len() != 0 {
			t.Fatalf("fired %d, now %v, lane %d; want 4, 15, 0", e.Fired(), e.Now(), e.lane.Len())
		}
	})

	t.Run("canceled-lane-event", func(t *testing.T) {
		// A canceled lane event is recycled at Cancel and leaves a stale
		// entry behind, which fires nothing; the heap keeps its events.
		e := NewEngine()
		got, rec := logger()
		for i := 0; i < 128; i++ {
			e.At(Time(100+i), func() {})
		}
		heapDead := e.At(99, rec("heap-dead"))
		heapDead.Cancel()
		var lane []Event
		for i := 0; i < 256; i++ {
			lane = append(lane, e.At(0, rec("lane-dead")))
		}
		keep := e.At(0, rec("keep"))
		for _, h := range lane {
			if !h.Cancel() || h.Pending() || h.Time() != 0 || h.Cancel() {
				t.Fatal("a canceled lane event is still pending")
			}
		}
		if e.set.size() != 128 || e.Pending() != 129 || len(e.free) != 256 || e.lane.Len() != 257 {
			t.Fatalf("heap %d, pending %d, free %d, lane %d; want 128, 129, 256, 257", e.set.size(), e.Pending(), len(e.free), e.lane.Len())
		}
		if !keep.Pending() || keep.Time() != 0 {
			t.Fatal("a live lane event behind canceled ones is not pending")
		}
		e.Run()
		wantOrder(t, *got, "keep")
		if e.set.size() != 0 || e.lane.Len() != 0 || e.Fired() != 129 {
			t.Fatalf("after Run: heap %d, lane %d, fired %d", e.set.size(), e.lane.Len(), e.Fired())
		}
	})

	t.Run("run-until", func(t *testing.T) {
		e := NewEngine()
		got, rec := logger()
		e.At(0, rec("now"))
		e.At(0, rec("dead")).Cancel()
		e.At(5, rec("later"))
		e.RunUntil(3)
		wantOrder(t, *got, "now")
		if e.Now() != 3 || e.lane.Len() != 0 {
			t.Fatalf("now %v, lane %d; want 3, 0", e.Now(), e.lane.Len())
		}
		e.At(3, rec("at-3"))
		e.RunUntil(3)
		wantOrder(t, *got, "now", "at-3")
		e.RunUntil(5)
		wantOrder(t, *got, "now", "at-3", "later")
	})

	t.Run("reset", func(t *testing.T) {
		e := NewEngine()
		live := e.At(0, func() { t.Error("pre-Reset lane event fired") })
		dead := e.At(0, func() {})
		dead.Cancel()
		again := e.At(0, func() {})
		e.Reschedule(again, 0) // lane to lane: a stale entry stays behind
		away := e.At(0, func() {})
		e.Reschedule(away, 7) // lane to heap: a stale entry stays behind
		e.At(9, func() {})
		e.Reset()
		for _, h := range []Event{live, dead, again, away} {
			if h.Pending() || h.Cancel() || e.Reschedule(h, 1) {
				t.Fatal("a pre-Reset lane handle came back to life")
			}
		}
		if e.lane.Len() != 0 {
			t.Fatalf("lane holds %d entries after Reset", e.lane.Len())
		}
		for _, s := range slotsOf(&e.lane) {
			if s.ev != nil {
				t.Fatal("a lane slot still pins an event after Reset")
			}
		}
		// Each event was recycled once: the stale entries added none.
		seen := map[*event]bool{}
		for _, ev := range e.free {
			if seen[ev] {
				t.Fatal("Reset recycled an event twice")
			}
			seen[ev] = true
		}
		// dead was recycled at Cancel and reused by again.
		if len(e.free) != 4 {
			t.Fatalf("free list %d after Reset, want 4", len(e.free))
		}
		got, rec := logger()
		e.At(0, rec("fresh"))
		e.Run()
		wantOrder(t, *got, "fresh")
	})
}

// Reset bounds what a pooled engine keeps: after a run whose pending set
// held far more than resetKeep events in a ring of as many buckets, only
// resetKeep recycled events survive and the ring is released, handles to
// the released events stay stale, and the next run still reuses the kept
// events and, once it has one, a ring of up to resetKeep buckets.
func TestEngineResetReleasesDeepFreeList(t *testing.T) {
	e := NewEngine()
	const deep = 8 * resetKeep
	hs := make([]Event, deep)
	for i := range hs {
		hs[i] = e.At(Time(i), func() {})
	}
	e.RunUntil(deep / 2)
	for i := 0; i < resetKeep; i++ {
		hs = append(hs, e.After(0, func() {}))
	}
	if len(e.set.ring) <= resetKeep || e.set.inRing == 0 {
		t.Fatalf("before Reset: the ring has %d buckets holding %d events, want more than %d buckets in use", len(e.set.ring), e.set.inRing, resetKeep)
	}
	e.Reset()
	if len(e.free) != resetKeep || e.set.size() != 0 || e.lane.Len() != 0 {
		t.Fatalf("after Reset: free %d, set %d, lane %d; want %d, 0, 0", len(e.free), e.set.size(), e.lane.Len(), resetKeep)
	}
	if cap(e.set.ring) != 0 || cap(e.set.occ) != 0 {
		t.Fatalf("after Reset the engine keeps a ring of %d buckets", cap(e.set.ring))
	}
	for _, h := range [...]eventHeap{e.set.near, e.set.far} {
		for _, s := range h[:cap(h)] {
			if s != nil {
				t.Fatal("a heap slot past the end still pins an event")
			}
		}
	}
	for _, s := range slotsOf(&e.lane) {
		if s.ev != nil {
			t.Fatal("a lane slot still pins an event")
		}
	}
	for _, h := range hs {
		if h.Pending() || h.Cancel() || e.Reschedule(h, 1) {
			t.Fatal("a pre-Reset handle came back to life")
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < resetKeep; i++ {
			e.At(Time(i), func() {})
		}
		e.Run()
		e.Reset()
	}); n != 0 {
		t.Fatalf("a run within resetKeep events allocated %v times after Reset", n)
	}
	if c := cap(e.set.ring); c > resetKeep {
		t.Fatalf("a pooled engine keeps a ring of %d buckets, want at most %d", c, resetKeep)
	}
}

// TestEngineAllocationCeiling pins the engine's steady state at zero
// allocations: once warmed, scheduling reuses recycled events, and
// neither firing, moving nor canceling an event allocates.
func TestEngineAllocationCeiling(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	warm := func() {
		for i := 0; i < 256; i++ {
			e.After(Time(i), fn)
		}
		e.Run()
	}
	warm()
	if n := testing.AllocsPerRun(1000, func() {
		e.After(Microsecond, fn)
		e.Step()
	}); n > 0 {
		t.Errorf("At+Step allocates %.2f, want 0", n)
	}
	warm()
	if n := testing.AllocsPerRun(1000, func() {
		h := e.After(Microsecond, fn)
		e.Reschedule(h, e.Now()+Millisecond)
		h.Cancel()
	}); n > 0 {
		t.Errorf("At+Reschedule+Cancel allocates %.2f, want 0", n)
	}
	// The same-instant lane: warm its ring past the 1,001 stale entries
	// the Reschedule row leaves until the next Step drains them.
	for i := 0; i < 2000; i++ {
		e.After(0, fn)
	}
	e.Run()
	if n := testing.AllocsPerRun(1000, func() {
		e.After(0, fn)
		e.Step()
	}); n > 0 {
		t.Errorf("After(0)+Step allocates %.2f, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		h := e.After(0, fn)
		e.Reschedule(h, e.Now()+Millisecond)
		h.Cancel()
	}); n > 0 {
		t.Errorf("After(0)+Reschedule(now+1ms)+Cancel allocates %.2f, want 0", n)
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}

	// At chaos-week's depth: 20,000 standing events, most of them in
	// the ring, with the far heap past a 20 ms span. Each row keeps the
	// depth: a new event for each one fired or canceled.
	e = NewEngine()
	for i := 1; i <= 20000; i++ {
		e.At(Time(i)*Microsecond, fn)
	}
	const d = 20 * Millisecond
	for i := 0; i < 20000; i++ {
		e.After(d, fn)
		e.Step()
	}
	if e.set.inRing < 10000 {
		t.Fatalf("the ring holds %d of 20,000 events", e.set.inRing)
	}
	if n := testing.AllocsPerRun(1000, func() {
		e.After(d, fn)
		e.Step()
	}); n > 0 {
		t.Errorf("At+Step at depth 20,000 allocates %.2f, want 0", n)
	}
	// Ring to far to near to lane and back to the ring, then a cancel
	// in its bucket.
	var path [5]tier
	moves := func() {
		h := e.After(d, fn)
		path[0] = h.ev.tier
		for i, at := range [...]Time{e.Now() + Hour, e.Now() + 1, e.Now(), e.Now() + d} {
			e.Reschedule(h, at)
			path[i+1] = h.ev.tier
		}
		h.Cancel()
		e.After(d, fn)
		e.Step()
	}
	moves()
	if want := [...]tier{inRing, inFar, inNear, inLane, inRing}; path != want {
		t.Fatalf("Reschedule path through the tiers %v, want %v", path, want)
	}
	if n := testing.AllocsPerRun(1000, moves); n > 0 {
		t.Errorf("Reschedule across the tiers and Cancel at depth 20,000 allocates %.2f, want 0", n)
	}
}

// TestTraceHashMatchesByteLoop checks the unrolled fold against the
// FNV-1a byte loop over the little-endian bytes of (at, seq).
func TestTraceHashMatchesByteLoop(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	th := NewTraceHash()
	want := uint64(14695981039346656037)
	for i := 0; i < 10000; i++ {
		at, seq := Time(r.Int63()), r.Uint64()
		switch i % 4 { // small values leave the high bytes zero
		case 1:
			at = Time(r.Intn(1 << 20))
		case 2:
			seq = uint64(r.Intn(256))
		}
		th.Observe(at, seq)
		for _, v := range [2]uint64{uint64(at), seq} {
			for b := 0; b < 8; b++ {
				want ^= (v >> (8 * b)) & 0xff
				want *= 1099511628211
			}
		}
		if th.Sum() != want {
			t.Fatalf("observation %d (at=%d seq=%d): hash %x, byte loop %x", i, at, seq, th.Sum(), want)
		}
	}
	if th.Events() != 10000 {
		t.Fatalf("events = %d, want 10000", th.Events())
	}
}
