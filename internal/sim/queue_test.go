package sim

import (
	"runtime"
	"testing"
	"unsafe"

	"spiderfs/internal/rng"
)

// checkQueue compares q against the plain-slice reference want, element
// by element through its ring and chain, and checks that every slot
// outside the live window is zero, so popped elements pin nothing: the
// ring's free slots, the head segment's popped slots, the tail
// segment's unwritten ones and every spare segment.
func checkQueue(t *testing.T, q *Queue[*int], want []*int) {
	t.Helper()
	if q.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(want))
	}
	front, ok := q.Front()
	if ok != (len(want) > 0) || ok && front != want[0] {
		t.Fatalf("Front = %v, %v; want %v", front, ok, want)
	}
	n := int(q.rn)
	for i := range q.ring {
		live := (i - int(q.head) + len(q.ring)) % len(q.ring)
		if live >= n && q.ring[i] != nil {
			t.Fatalf("ring slot %d outside the live window holds %p", i, q.ring[i])
		}
		if live < n && q.ring[i] != want[live] {
			t.Fatalf("ring slot %d holds element %d's pointer, want element %d's", i, live, live)
		}
	}
	c := q.over
	if c == nil {
		if n != len(want) {
			t.Fatalf("no chain, but the ring holds %d of %d elements", n, len(want))
		}
		return
	}
	if len(want) == n && c.head != c.tail {
		t.Fatal("an empty chain holds more than one linked segment")
	}
	segs, k := 0, n
	for s := c.head; s != nil; s = s.next {
		segs++
		lo, hi := 0, segSlots
		if s == c.head {
			lo = c.r
		}
		if s == c.tail {
			hi = c.w
		}
		for i, v := range s.slots {
			if i < lo || i >= hi {
				if v != nil {
					t.Fatalf("chain slot %d outside the live window holds %p", i, v)
				}
				continue
			}
			if v != want[k] {
				t.Fatalf("chain slot %d holds the wrong element, want element %d", i, k)
			}
			k++
		}
		if s == c.tail && s.next != nil {
			t.Fatal("the chain's tail links onward")
		}
	}
	if k != len(want) {
		t.Fatalf("the ring and chain hold %d elements, want %d", k, len(want))
	}
	for s := c.spare; s != nil; s = s.next {
		segs++
		for i, v := range s.slots {
			if v != nil {
				t.Fatalf("spare segment slot %d holds %p", i, v)
			}
		}
	}
	if segs != c.segs {
		t.Fatalf("chain counts %d segments, holds %d", c.segs, segs)
	}
}

// slotsOf returns a copy of every slot q holds, live or free: its ring,
// its chain's segments and their spares.
func slotsOf[T any](q *Queue[T]) []T {
	all := append([]T(nil), q.ring...)
	if c := q.over; c != nil {
		for _, list := range []*segment[T]{c.head, c.spare} {
			for s := list; s != nil; s = s.next {
				all = append(all, s.slots[:]...)
			}
		}
	}
	return all
}

// TestQueueMatchesSlice drives seeded random Push/Pop sequences through
// a Queue and a plain slice FIFO side by side. The push bias swings
// between short phases, and the pushing phases win by a little for
// 2,048 operations and lose for the next 2,048, so the ring fills and
// drains, wraps, grows while wrapped, and overflows into a chain that
// links and recycles segments, many times over.
func TestQueueMatchesSlice(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		src := rng.New(seed)
		var q Queue[*int]
		var want []*int
		grows, wraps, links := 0, 0, 0
		for op := 0; op < 40_000; op++ {
			pushBias := 0.7
			if op/256%2 == 1 {
				pushBias = 0.4
			}
			if op/2048%2 == 1 {
				pushBias -= 0.15
			}
			if src.Bool(pushBias) {
				v := new(int)
				*v = op
				ring, head, w := len(q.ring), q.head, 0
				if q.over != nil {
					w = q.over.w
				}
				q.Push(v)
				want = append(want, v)
				if len(q.ring) != ring && head != 0 {
					grows++ // the grow had to unroll a wrapped ring
				}
				if q.over != nil && q.over.w == 1 && w != 0 {
					links++ // a full tail segment took a successor
				}
			} else {
				head := q.head
				got, ok := q.Pop()
				if ok != (len(want) > 0) {
					t.Fatalf("seed %d op %d: Pop ok = %v with %d queued", seed, op, ok, len(want))
				}
				if ok {
					if got != want[0] {
						t.Fatalf("seed %d op %d: Pop = %d, want %d", seed, op, *got, *want[0])
					}
					want = want[1:]
					if q.head < head {
						wraps++
					}
				} else if got != nil {
					t.Fatalf("seed %d op %d: Pop of empty queue returned %p", seed, op, got)
				}
			}
			checkQueue(t, &q, want)
		}
		for _, w := range want {
			if got, ok := q.Pop(); !ok || got != w {
				t.Fatalf("seed %d: drain popped %v, %v; want %d", seed, got, ok, *w)
			}
		}
		checkQueue(t, &q, nil)
		if grows < 4 || wraps < 20 || links < 3 {
			t.Fatalf("seed %d: only %d wrapped grows, %d wraps and %d segment links; the sequence does not exercise the queue", seed, grows, wraps, links)
		}
	}
}

// FuzzQueueOps drives arbitrary Push/Pop sequences through a Queue and
// a plain slice FIFO side by side, checking Len, Front and every popped
// element on each operation and the whole layout (checkQueue) after
// each input byte. Byte b pushes (b>>7 == 0) or pops (b>>7 == 1)
// b&63+1 elements, times 64 when bit 6 is set; the queue is kept under
// 1<<14 elements. Run it with
//
//	go test -run '^$' -fuzz FuzzQueueOps -fuzztime 30s ./internal/sim
//
// Plain go test runs the seed corpus below.
func FuzzQueueOps(f *testing.F) {
	const (
		push, pop = 0x00, 0x80
		x64       = 0x40
	)
	f.Add([]byte{})
	// Wrap-around: a ring of 4 whose head wraps, then grows while wrapped.
	f.Add([]byte{push | 3, pop | 2, push | 2, pop | 1, push | 3, pop | 7})
	// A segment boundary: fill the ring (256) and one segment (255),
	// link a second, pop across the boundary and push into the spare.
	f.Add([]byte{push | x64 | 7, push | 1, pop | x64 | 3, pop | 43, push | x64 | 4, pop | x64 | 4, push | x64 | 4, pop | x64 | 15})
	// Drain to empty from the chain, then refill the ring and the chain.
	f.Add([]byte{push | x64 | 9, pop | x64 | 9, pop, push | 9, pop | 9, push | x64 | 5, pop | x64 | 5})
	// Regrowth past 1,024: two deep bursts, each drained to empty.
	f.Add([]byte{push | x64 | 16, push | 15, pop | x64 | 16, pop | 15, push | x64 | 17, pop | x64 | 17})
	// A burst of 5,000, drained.
	f.Add([]byte{push | x64 | 63, push | x64 | 13, push | 7, pop | x64 | 63, pop | x64 | 13, pop | 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Queue[*int]
		var want []*int
		id := 0
		for _, b := range ops {
			n := int(b&63) + 1
			if b&x64 != 0 {
				n *= 64
			}
			for i := 0; i < n; i++ {
				if b&pop == 0 {
					if len(want) == 1<<14 {
						break
					}
					v := new(int)
					*v = id
					id++
					q.Push(v)
					want = append(want, v)
				} else {
					got, ok := q.Pop()
					if ok != (len(want) > 0) || ok && got != want[0] || !ok && got != nil {
						t.Fatalf("Pop = %v, %v with %d queued", got, ok, len(want))
					}
					if ok {
						want = want[1:]
					}
				}
				if front, ok := q.Front(); q.Len() != len(want) || ok != (len(want) > 0) || ok && front != want[0] {
					t.Fatalf("Len = %d, Front ok = %v; want %d queued", q.Len(), ok, len(want))
				}
			}
			checkQueue(t, &q, want)
		}
	})
}

// allocated returns the bytes and allocations f costs, the least of
// three tries so a stray allocation elsewhere in the process cannot
// inflate it.
func allocated(f func()) (bytes, mallocs uint64) {
	var before, after runtime.MemStats
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		b, m := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		if try == 0 || b < bytes {
			bytes, mallocs = b, m
		}
	}
	return bytes, mallocs
}

// burst pushes depth jobs into a new queue.
func burst(depth int) *Queue[serverJob] {
	q := new(Queue[serverJob])
	for i := 0; i < depth; i++ {
		q.Push(serverJob{service: Time(i)})
	}
	return q
}

var sinkQueue *Queue[serverJob]

// TestQueueBurstCopiesNothing pins the growth claim. Up to ringSlots
// the ring grows as an appended slice would: for 16-byte serverJobs,
// ten allocations and 9.4 KB, ending at 303 slots. Past it, a push-only
// burst to depth D costs the chain's header plus one allocation per
// segment, and every slot past the ring is paid for once, at a
// segment's per-slot price, plus at most one partly filled segment of
// slack. A queue that
// grew by copying pays for its old arrays again at every growth and
// fails the byte bound.
func TestQueueBurstCopiesNothing(t *testing.T) {
	ring := len(burst(ringSlots).ring) // append may round ringSlots up
	ringBytes, ringMallocs := allocated(func() { sinkQueue = burst(ring) })
	segBytes, _ := allocated(func() { sinkQueue.over = &chain[serverJob]{spare: new(segment[serverJob])} })
	hdrBytes, _ := allocated(func() { sinkQueue.over = new(chain[serverJob]) })
	segBytes -= hdrBytes
	for _, depth := range []int{ring + 1, 1000, 2000, 5000} {
		bytes, mallocs := allocated(func() { sinkQueue = burst(depth) })
		past := uint64(depth - ring)
		segs := (past + segSlots - 1) / segSlots
		if want := ringMallocs + 1 + segs; mallocs != want {
			t.Errorf("depth %d: %d allocations, want %d (ring %d, chain header 1, segments %d)", depth, mallocs, want, ringMallocs, segs)
		}
		limit := ringBytes + hdrBytes + past*segBytes/segSlots + segBytes
		if bytes > limit {
			t.Errorf("depth %d: %d bytes allocated, want at most %d", depth, bytes, limit)
		}
	}
	sinkQueue = nil
}

var sinkSegment *segment[serverJob]

// TestServerJobFitsSizeClass pins the record every drive, OSS CPU,
// controller and MDS queues: a serverJob is its service time and its
// done, 16 bytes, and one segment of them (its link, 255 slots and the
// allocator's 8-byte header) fills the 4 KiB size class. One more
// 8-byte field, such as an arrival time, puts every segment in the
// 6 KiB class.
func TestServerJobFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(serverJob{}); size != 16 {
		t.Errorf("serverJob is %d bytes, want 16", size)
	}
	bytes, mallocs := allocated(func() { sinkSegment = new(segment[serverJob]) })
	if mallocs != 1 || bytes > 4096 {
		t.Errorf("a serverJob segment costs %d bytes in %d allocations, want at most 4,096 in 1", bytes, mallocs)
	}
	sinkSegment = nil
}
