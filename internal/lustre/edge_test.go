package lustre

import (
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

func TestReadUntilStonewall(t *testing.T) {
	eng, fs := testFS(t, 90)
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	var file *File
	fs.Create("r/f", 2, func(f *File) { file = f })
	eng.Run()
	client.WriteStream(file, 32<<20, 1<<20, nil)
	eng.Run()
	var read int64
	client.ReadUntil(file, eng.Now()+sim.Second, 1<<20, func(n int64) { read = n })
	eng.Run()
	if read <= 0 {
		t.Fatal("stonewall read moved nothing")
	}
}

func TestWriteUntilPastDeadlineCompletesEmpty(t *testing.T) {
	eng, fs := testFS(t, 91)
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	var file *File
	fs.Create("w/f", 1, func(f *File) { file = f })
	eng.Run()
	called := false
	client.WriteUntil(file, 0, 1<<20, func(n int64) {
		called = true
		if n != 0 {
			t.Errorf("past-deadline stonewall wrote %d", n)
		}
	})
	eng.Run()
	if !called {
		t.Fatal("completion callback never ran")
	}
}

func TestControllerOversizeWriteAdmitted(t *testing.T) {
	// A single write larger than the cache must not deadlock: it is
	// admitted when the cache is empty.
	eng := sim.NewEngine()
	ctrl := NewController(eng, 0, ControllerConfig{
		Bps: 1e9, FixedPerRPC: sim.Microsecond, Slots: 2, CacheBytes: 1 << 20,
	})
	done := false
	ctrl.AdmitWrite(8<<20, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("oversize write deadlocked")
	}
	ctrl.Flushed(8 << 20)
	if ctrl.Dirty() != 0 {
		t.Fatalf("dirty = %d", ctrl.Dirty())
	}
}

func TestControllerWaitersDrainInOrder(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := NewController(eng, 0, ControllerConfig{
		Bps: 1e12, FixedPerRPC: sim.Microsecond, Slots: 4, CacheBytes: 2 << 20,
	})
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		ctrl.AdmitWrite(1<<20, func() { order = append(order, i) })
	}
	eng.Run()
	// First two admitted; remaining stalled.
	if ctrl.CacheStalls != 2 {
		t.Fatalf("stalls = %d, want 2", ctrl.CacheStalls)
	}
	ctrl.Flushed(2 << 20)
	eng.Run()
	if len(order) != 4 {
		t.Fatalf("completions = %v", order)
	}
}

// TestControllerHerdReleaseFIFO pins the cache-stall queue: Flushed
// releases every head waiter that fits the freed gap, in FIFO order,
// without reserving their space; released waiters leave QueueLen at
// once but re-enter the admission only when their readmit event fires,
// and the ones the gap cannot hold re-stall and count again.
func TestControllerHerdReleaseFIFO(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := NewController(eng, 0, ControllerConfig{Bps: 1e9, Slots: 1, CacheBytes: 4 << 20})
	ctrl.AdmitWrite(4<<20, nil)
	eng.Run()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		ctrl.AdmitWrite(1<<20, func() { order = append(order, i) })
	}
	if ctrl.CacheStalls != 3 || ctrl.QueueLen() != 3 {
		t.Fatalf("stalls %d, queue %d; want 3, 3", ctrl.CacheStalls, ctrl.QueueLen())
	}
	ctrl.Flushed(2 << 20) // a 2 MiB gap releases all three 1 MiB waiters
	if ctrl.QueueLen() != 0 || eng.Pending() != 3 {
		t.Fatalf("after Flushed: queue %d, pending events %d; want 0, 3", ctrl.QueueLen(), eng.Pending())
	}
	// Readmits fire in release order: 0 takes the free slot, 1 queues
	// behind it, 2 finds the gap taken and re-stalls.
	for i, want := range []int{0, 1, 2} {
		eng.Step()
		if ctrl.QueueLen() != want {
			t.Fatalf("after readmit %d: queue %d, want %d", i, ctrl.QueueLen(), want)
		}
	}
	if ctrl.CacheStalls != 4 || ctrl.Dirty() != 4<<20 {
		t.Fatalf("stalls %d, dirty %d; want 4, %d", ctrl.CacheStalls, ctrl.Dirty(), 4<<20)
	}
	eng.Run()
	ctrl.Flushed(1 << 20)
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("completion order %v, want [0 1 2]", order)
	}
	if ctrl.CacheStalls != 4 || ctrl.QueueLen() != 0 {
		t.Fatalf("stalls %d, queue %d; want 4, 0", ctrl.CacheStalls, ctrl.QueueLen())
	}
}

// TestControllerStallAllocationCeiling pins the cost of a cache stall:
// a waiter that Flushed releases and that re-stalls on readmit, because
// another writer took the gap first, allocates nothing — the readmit
// event is a recycled one.
func TestControllerStallAllocationCeiling(t *testing.T) {
	const size = 1 << 20
	eng := sim.NewEngine()
	ctrl := NewController(eng, 0, ControllerConfig{Bps: 1e9, Slots: 1, CacheBytes: 4 * size})
	ctrl.AdmitWrite(4*size, nil)
	ctrl.AdmitWrite(size, nil) // stalls
	eng.Run()
	stalls := ctrl.CacheStalls
	perCycle := testing.AllocsPerRun(1000, func() {
		ctrl.Flushed(size)
		ctrl.dirty += size // another writer takes the gap
		eng.Run()          // readmit re-stalls
	})
	if ctrl.CacheStalls != stalls+1001 || ctrl.QueueLen() != 1 {
		t.Fatalf("stalls %d, queue %d; want %d, 1", ctrl.CacheStalls, ctrl.QueueLen(), stalls+1001)
	}
	if perCycle > 0 {
		t.Errorf("stall -> Flushed -> readmit allocates %.2f, want 0", perCycle)
	}
}

// TestObjectWriteAllocationCeiling pins the OST write path: an
// Object.Write, its admission, its write-back ack and its flush to the
// RAID group, full-stripe or fragmented, allocate nothing once the
// OST's records exist. The OST reuses its write records and binds its
// one-stripe flush callback once.
func TestObjectWriteAllocationCeiling(t *testing.T) {
	eng, fs := testFS(t, 96)
	ost := fs.OSTs[0]
	obj := ost.NewObject()
	acked := 0
	done := func() { acked++ }
	cycle := func() {
		obj.Write(1<<20, done)
		eng.Run()
	}
	// Warm up until both flush kinds have run: every queue and idle
	// list at size.
	for ost.SequentialFlushes == 0 || ost.FragmentedFlushes == 0 {
		cycle()
	}
	before := acked
	perWrite := testing.AllocsPerRun(100, cycle)
	if acked-before != 101 || ost.Controller().Dirty() != 0 {
		t.Fatalf("%d writes acked, %d bytes dirty; want 101, 0", acked-before, ost.Controller().Dirty())
	}
	if perWrite > 0 {
		t.Errorf("Object.Write plus its flush allocates %.2f, want 0", perWrite)
	}
}

// TestClientWriteAllocationCeiling pins the whole write path, client
// RPC to disk, over NullTransport: once the write-back depth has
// levelled off, a stream 16 times longer allocates almost exactly what
// a short one does, where one allocation per RPC anywhere on the path
// would add 960. The 16 MiB cache keeps the group's writes in flight
// within its idle list. What a longer stream may still add is a queue
// or idle list reaching a new peak depth when fragmented flushes
// happen to overlap.
func TestClientWriteAllocationCeiling(t *testing.T) {
	eng := sim.NewEngine()
	p := TestNamespace()
	p.CtrlCfg.CacheBytes = 16 << 20
	fs := Build(eng, p, rng.New(97))
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	var file *File
	fs.Create("app/f", 1, func(f *File) { file = f })
	eng.Run()
	stream := func(mib int64) func() {
		return func() {
			client.WriteStream(file, mib<<20, 1<<20, nil)
			eng.Run()
		}
	}
	stream(256)() // the depth levels off
	short := testing.AllocsPerRun(1, stream(64))
	long := testing.AllocsPerRun(1, stream(1024))
	if want := int64(256+2*64+2*1024) << 20; client.BytesWritten != want {
		t.Fatalf("wrote %d bytes, want %d", client.BytesWritten, want)
	}
	if long > short+32 {
		t.Errorf("a 1024 MiB stream allocates %.0f, a 64 MiB one %.0f; want at most 32 more", long, short)
	}
}

func TestObjectFlushTimerForcesResidual(t *testing.T) {
	eng, fs := testFS(t, 92)
	ost := fs.OSTs[0]
	obj := ost.NewObject()
	// A partial write smaller than a stripe stays buffered until the
	// flush timer forces it out.
	obj.Write(256<<10, nil)
	eng.RunUntil(eng.Now() + flushDelay + 200*sim.Millisecond)
	if ost.Controller().Dirty() != 0 {
		t.Fatalf("residual not flushed: dirty=%d", ost.Controller().Dirty())
	}
	if ost.FragmentedFlushes == 0 {
		t.Fatal("forced residual flush not recorded")
	}
}

func TestDestroyReleasesDirtyCache(t *testing.T) {
	eng, fs := testFS(t, 94)
	ost := fs.OSTs[0]
	obj := ost.NewObject()
	obj.Write(512<<10, nil)
	eng.RunUntil(eng.Now() + sim.Millisecond) // in cache, not yet force-flushed
	if ost.Controller().Dirty() == 0 {
		t.Fatal("test setup: nothing dirty")
	}
	obj.Destroy()
	if ost.Controller().Dirty() != 0 {
		t.Fatalf("destroy left %d dirty", ost.Controller().Dirty())
	}
	if ost.Used() != 0 {
		t.Fatalf("destroy left %d used", ost.Used())
	}
	eng.Run()
}

func TestSetFillRejectsOutOfRange(t *testing.T) {
	_, fs := testFS(t, 95)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fs.OSTs[0].SetFill(1.5)
}

func TestPreloadNegativePanics(t *testing.T) {
	_, fs := testFS(t, 96)
	obj := fs.OSTs[0].NewObject()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	obj.Preload(-1)
}

func TestFabriclessBuildDeterminism(t *testing.T) {
	// Two identical builds produce identical OST capacity layouts and
	// identical first-write behaviour.
	run := func() (int64, sim.Time) {
		eng := sim.NewEngine()
		fs := Build(eng, TestNamespace(), rng.New(1234))
		client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
		var file *File
		fs.Create("det/f", 4, func(f *File) { file = f })
		eng.Run()
		client.WriteStream(file, 16<<20, 1<<20, nil)
		eng.Run()
		return fs.TotalUsed(), eng.Now()
	}
	u1, t1 := run()
	u2, t2 := run()
	if u1 != u2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", u1, t1, u2, t2)
	}
}
