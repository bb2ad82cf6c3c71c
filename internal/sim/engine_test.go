package sim

import (
	"math/rand"
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

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	// Stop is sticky: without ClearStop the resume attempt is a no-op.
	e.Run()
	if count != 3 {
		t.Fatalf("run while stopped fired events: count = %d, want 3", count)
	}
	e.ClearStop()
	e.Run() // resume
	if count != 10 {
		t.Fatalf("after resume count = %d, want 10", count)
	}
}

// A Stop issued before Run/RunUntil (e.g. by a barrier controller
// between quanta) must not be silently lost.
func TestEngineStopStickyBeforeRun(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(5, func() { fired = true })
	e.Stop()
	if !e.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	e.Run()
	e.RunUntil(10)
	if fired {
		t.Fatal("stopped engine fired an event")
	}
	if e.Now() != 0 {
		t.Fatalf("stopped engine moved its clock to %v", e.Now())
	}
	e.ClearStop()
	e.RunUntil(10)
	if !fired || e.Now() != 10 {
		t.Fatalf("after ClearStop: fired=%v now=%v, want true 10", fired, e.Now())
	}
}

// A Stop that fires mid-RunUntil must leave the clock at the last fired
// event, not teleport it to the target time past unprocessed events.
func TestEngineRunUntilStopKeepsClock(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() {
			fired = append(fired, at)
			if at == 10 {
				e.Stop()
			}
		})
	}
	e.RunUntil(30)
	if len(fired) != 2 || e.Now() != 10 {
		t.Fatalf("after stopped RunUntil: fired=%v now=%v, want [5 10] 10", fired, e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2 (events at 15, 20 still live)", e.Pending())
	}
	e.ClearStop()
	e.RunUntil(30)
	if len(fired) != 4 || e.Now() != 30 {
		t.Fatalf("after resume: fired=%v now=%v, want 4 events and clock 30", fired, e.Now())
	}
}

// Pending counts live events only; canceled tombstones are excluded and
// eventually reaped so the heap cannot grow without bound.
func TestEnginePendingExcludesCanceled(t *testing.T) {
	e := NewEngine()
	keep := e.At(100, func() {})
	var canceled []*Event
	for i := 0; i < 1000; i++ {
		canceled = append(canceled, e.At(Time(i+1), func() {}))
	}
	if e.Pending() != 1001 {
		t.Fatalf("pending = %d, want 1001", e.Pending())
	}
	for _, ev := range canceled {
		ev.Cancel()
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after cancels, want 1", e.Pending())
	}
	// Tombstones dominate (1000 canceled vs 1 live): reaping must have
	// compacted the heap rather than leaving lazy deletion to Run.
	if len(e.heap) > reapFloor {
		t.Fatalf("heap holds %d entries after cancels, want <= %d (reaped)", len(e.heap), reapFloor)
	}
	if !keep.Pending() {
		t.Fatal("live event lost by reaping")
	}
	e.Run()
	if e.Pending() != 0 || e.Now() != 100 {
		t.Fatalf("after run: pending=%d now=%v, want 0 100", e.Pending(), e.Now())
	}
}

// Reaping must not disturb pop order: interleave schedules and cancels
// so compaction happens mid-stream, then check the survivors fire in
// (time, seq) order with the same trace as an unreaped twin.
func TestEngineReapPreservesOrder(t *testing.T) {
	run := func(forceReap bool) (order []Time, trace uint64) {
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
		if forceReap {
			// Cancel a burst so tombstones outnumber live events.
			var evs []*Event
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
		t.Fatalf("trace diverged under reaping: %x vs %x", gotTrace, wantTrace)
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
// in-flight event has been popped (idx == -1) and marked fired, so both
// must refuse it, while other pending events stay fully mutable.
func TestEngineCancelRescheduleFromCallback(t *testing.T) {
	e := NewEngine()
	var self, other *Event
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
		var evs []*Event
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
	if FromSeconds(-3) != 0 {
		t.Fatal("negative seconds should clamp to 0")
	}
}

// runTracedModel drives a small model with cancels, ties, and nested
// scheduling on e and returns its trace fingerprint. Used to compare a
// fresh engine against a reset-and-reused one.
func runTracedModel(e *Engine, seed int) uint64 {
	th := NewTraceHash()
	e.SetTrace(th.Observe)
	r := rand.New(rand.NewSource(int64(seed)))
	var evs []*Event
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

	// Dirty an engine thoroughly — mid-run stop, pending events, trace
	// hook, tombstones — then Reset and rerun the same model.
	e := NewEngine()
	e.SetTrace(func(Time, uint64) {})
	for i := 0; i < 100; i++ {
		e.At(Time(i), func() {})
	}
	stale := e.At(500, func() { t.Error("stale pre-reset event fired") })
	e.At(10, func() { e.Stop() })
	e.Run()

	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Fired() != 0 || e.Stopped() {
		t.Fatalf("reset engine not pristine: now=%v pending=%d fired=%d stopped=%v",
			e.Now(), e.Pending(), e.Fired(), e.Stopped())
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
