package sim

import (
	"testing"

	"spiderfs/internal/rng"
)

// checkQueue compares q against the plain-slice reference want and
// checks that every slot outside the live window is zero, so popped
// elements pin nothing.
func checkQueue(t *testing.T, q *Queue[*int], want []*int) {
	t.Helper()
	if q.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(want))
	}
	front, ok := q.Front()
	if ok != (len(want) > 0) || ok && front != want[0] {
		t.Fatalf("Front = %v, %v; want %v", front, ok, want)
	}
	for i := range q.buf {
		live := (i - q.head + len(q.buf)) % len(q.buf)
		if live >= q.n && q.buf[i] != nil {
			t.Fatalf("slot %d outside the live window holds %p", i, q.buf[i])
		}
	}
}

// TestQueueMatchesSlice drives seeded random Push/Pop sequences through
// a Queue and a plain slice FIFO side by side. The push bias swings
// between phases, and the pushing phases win by a little, so the ring
// fills and drains, wraps, and grows while wrapped, many times over.
func TestQueueMatchesSlice(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		src := rng.New(seed)
		var q Queue[*int]
		var want []*int
		grows, wraps := 0, 0
		for op := 0; op < 20_000; op++ {
			pushBias := 0.7
			if op/256%2 == 1 {
				pushBias = 0.35
			}
			if src.Bool(pushBias) {
				v := new(int)
				*v = op
				size, head := len(q.buf), q.head
				q.Push(v)
				want = append(want, v)
				if len(q.buf) != size && head != 0 {
					grows++ // the grow had to unroll a wrapped ring
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
		if grows < 4 || wraps < 10 {
			t.Fatalf("seed %d: only %d wrapped grows and %d wraps; the sequence does not exercise the ring", seed, grows, wraps)
		}
	}
}

// TestQueueGrowsLikeAppend pins the memory claim: a queue that is only
// pushed to holds exactly the capacity a plain appended slice would.
func TestQueueGrowsLikeAppend(t *testing.T) {
	var q Queue[serverJob]
	var ref []serverJob
	for i := 0; i < 5000; i++ {
		q.Push(serverJob{arrive: Time(i)})
		ref = append(ref, serverJob{arrive: Time(i)})
		if cap(q.buf) != cap(ref) {
			t.Fatalf("after %d pushes the ring holds %d slots, a slice %d", i+1, cap(q.buf), cap(ref))
		}
	}
}
