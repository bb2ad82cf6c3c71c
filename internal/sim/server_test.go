package sim

import "testing"

func TestServerFIFO(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "disk", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Submit(10, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v not FIFO", order)
		}
	}
	if e.Now() != 50 {
		t.Fatalf("5 serialized jobs of 10 should end at 50, got %v", e.Now())
	}
	if s.Completed != 5 {
		t.Fatalf("completed = %d", s.Completed)
	}

	// Wrap-around: jobs submitted while earlier ones drain keep a
	// one-slot server's queue two deep, so the ring's head wraps on
	// every completion; job 5's completion submits two, growing the
	// ring while it is wrapped.
	e = NewEngine()
	s = NewServer(e, "disk", 1)
	order = nil
	const jobs = 16
	next := 0
	var submit func()
	submit = func() {
		if next == jobs {
			return
		}
		id := next
		next++
		s.Submit(10, func() {
			order = append(order, id)
			submit()
			if id == 5 {
				submit()
			}
		})
	}
	for i := 0; i < 3; i++ {
		submit()
	}
	e.Run()
	if len(order) != jobs {
		t.Fatalf("completed %d of %d jobs", len(order), jobs)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wrap-around completion order %v not FIFO", order)
		}
	}
	// Jobs 3-8 wait 20 (two ahead of them), jobs 9-15 wait 30.
	if e.Now() != 10*jobs || s.MaxQueue != 3 || s.WaitTime != 0+10+20+6*20+7*30 {
		t.Fatalf("end %v, max queue %d, wait %v; want %d, 3, 360", e.Now(), s.MaxQueue, s.WaitTime, 10*jobs)
	}
}

// TestServerAllocationCeiling pins the steady-state cost of a deep
// queue: with 1,024 jobs standing in line, a submit plus a completion
// allocates nothing. The completion is data in a recycled event, not a
// closure, and the ring holds the queued jobs.
func TestServerAllocationCeiling(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "deep", 1)
	for i := 0; i <= 1024; i++ {
		s.Submit(Microsecond, nil)
	}
	perJob := testing.AllocsPerRun(1000, func() {
		s.Submit(Microsecond, nil)
		e.Step()
	})
	if s.QueueLen() != 1024 {
		t.Fatalf("queue depth %d, want 1024", s.QueueLen())
	}
	if perJob > 0 {
		t.Errorf("submit+complete at depth 1024 allocates %.2f, want 0", perJob)
	}
}

// TestServerReleasesDrainedRing checks the retention rule: a queue
// drained from a burst that held more than maxDrainedRing slots (its
// ring, segments and spares) releases all of them, so a server kept
// alive after its run does not pin its peak depth, while one drained
// from a shallower burst keeps them, and the next burst of that depth
// allocates nothing.
func TestServerReleasesDrainedRing(t *testing.T) {
	for _, depth := range []int{64, maxDrainedRing / 2, maxDrainedRing, 4 * maxDrainedRing} {
		e := NewEngine()
		s := NewServer(e, "burst", 1)
		held := 0
		burst := func() {
			for i := 0; i <= depth; i++ { // one in service, depth queued
				s.Submit(Microsecond, nil)
			}
			held = s.queue.slots()
			e.Run()
		}
		burst()
		if s.Completed != uint64(depth+1) || s.QueueLen() != 0 {
			t.Fatalf("depth %d: %d jobs done, %d queued; want %d, 0", depth, s.Completed, s.QueueLen(), depth+1)
		}
		want := held
		if held > maxDrainedRing {
			want = 0
		}
		if got := s.queue.slots(); got != want {
			t.Fatalf("depth %d: drained queue of %d slots holds %d, want %d", depth, held, got, want)
		}
		if want == 0 {
			continue
		}
		if n := testing.AllocsPerRun(5, burst); n > 0 {
			t.Errorf("depth %d: a burst into a kept queue of %d slots allocates %.1f, want 0", depth, held, n)
		}
	}
}

func TestServerParallelSlots(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "oss", 2)
	done := 0
	for i := 0; i < 4; i++ {
		s.Submit(10, func() { done++ })
	}
	e.Run()
	// 4 jobs, 2 slots, 10 each -> finishes at 20.
	if e.Now() != 20 {
		t.Fatalf("end time = %v, want 20", e.Now())
	}
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
}

func TestServerUtilization(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "u", 1)
	s.Submit(10, nil)
	e.RunUntil(20)
	u := s.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %f, want ~0.5", u)
	}
}

func TestServerWaitAccounting(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "w", 1)
	s.Submit(10, nil) // waits 0
	s.Submit(10, nil) // waits 10
	s.Submit(10, nil) // waits 20
	e.Run()
	if s.WaitTime != 30 {
		t.Fatalf("wait time = %v, want 30", s.WaitTime)
	}
	if s.MeanWait() != 10 {
		t.Fatalf("mean wait = %v, want 10", s.MeanWait())
	}
	if s.MaxQueue != 2 {
		t.Fatalf("max queue = %d, want 2", s.MaxQueue)
	}
}

func TestServerZeroService(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "z", 1)
	ran := false
	s.Submit(0, func() { ran = true })
	s.Submit(-5, nil) // clamped to zero
	e.Run()
	if !ran || s.Completed != 2 {
		t.Fatalf("ran=%v completed=%d", ran, s.Completed)
	}
}

func TestServerMinCapacity(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "c", 0)
	if s.Capacity() != 1 {
		t.Fatalf("capacity clamped to %d, want 1", s.Capacity())
	}
}

func TestBarrierFanOut(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "d", 4)
	fired := false
	var at Time
	b := NewBarrier(func() { fired = true; at = e.Now() })
	for i := 0; i < 4; i++ {
		b.Add(1)
		d := Time(10 * (i + 1))
		s.Submit(d, b.DoneFunc())
	}
	b.Arm()
	e.Run()
	if !fired {
		t.Fatal("barrier never fired")
	}
	if at != 40 {
		t.Fatalf("barrier fired at %v, want 40 (slowest leg)", at)
	}
	// The callback is bound once per barrier, not once per sub-job.
	if n := testing.AllocsPerRun(100, func() { b.DoneFunc() }); n != 0 {
		t.Fatalf("DoneFunc allocates %.0f per call after the first, want 0", n)
	}
}

func TestBarrierZeroJobs(t *testing.T) {
	fired := false
	b := NewBarrier(func() { fired = true })
	b.Arm()
	if !fired {
		t.Fatal("zero-job barrier should fire on Arm")
	}
}

func TestBarrierOverDonePanics(t *testing.T) {
	b := NewBarrier(nil)
	b.Add(1)
	b.Done()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on extra Done")
		}
	}()
	b.Done()
}
