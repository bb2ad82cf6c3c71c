package sim

// Queue is a FIFO: Push, Front, Pop and Len are O(1), and the zero
// value is an empty queue ready to use. Popped slots are zeroed so the
// queue pins no closure or pointer it has handed out.
//
// The front of a queue lives in a ring buffer that grows through
// append's own policy until it holds ringSlots elements, so a shallow
// queue costs what the plain slice FIFO it replaced did. A queue that
// outgrows a full ring links fixed segments of segSlots elements behind
// it and copies nothing: a deep burst holds at most one partly filled
// segment of slack, and a segment it has drained waits in a spare list
// for the next one. The chain's state sits behind one pointer, so the
// header of a queue held by value in every drive's Server stays as small
// as the ring's: 40 bytes. (The ring grows only while it is shorter
// than ringSlots, so append leaves it well under 1<<16 slots.)
type Queue[T any] struct {
	ring []T       // len(ring) == cap(ring): every slot is usable
	head uint16    // index of the ring's front element
	rn   uint16    // number of elements in the ring
	n    int32     // number of queued elements, ring and chain
	over *chain[T] // elements behind a full ring; nil until one overflows
}

// ringSlots is the ring's growth limit: a queue that is deeper than its
// ring once the ring holds at least this many slots grows by segments.
const ringSlots = 256

// segSlots is a segment's capacity: one link, 255 slots of a 16, 24 or
// 32-byte element and the allocator's 8-byte type header fill a malloc
// size class (4, 6 or 8 KiB) to within 16 bytes.
const segSlots = 255

// segment is one block of the overflow chain: its link and its slots
// are a single allocation.
type segment[T any] struct {
	next  *segment[T]
	slots [segSlots]T
}

// chain holds the elements queued behind a queue's ring, oldest first:
// they run from slot r of head to slot w-1 of tail.
type chain[T any] struct {
	head, tail *segment[T]
	spare      *segment[T] // drained segments, linked through next
	r, w       int
	segs       int // segments held, spares included
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return int(q.n) }

// Push appends v at the back of the queue.
func (q *Queue[T]) Push(v T) {
	if q.n == int32(q.rn) { // the chain is empty
		if int(q.rn) < len(q.ring) {
			q.pushRing(v)
			return
		}
	} else if q.over.w < segSlots {
		q.pushChain(v)
		return
	}
	q.pushSlow(v)
}

// pushSlow is Push into a full ring or a full tail segment: it grows
// the ring, or links a spare or new segment. It is kept out of line so
// that Push's common paths stay small.
func (q *Queue[T]) pushSlow(v T) {
	if q.n == int32(q.rn) && len(q.ring) < ringSlots {
		q.grow()
		q.pushRing(v)
		return
	}
	if q.over == nil {
		q.over = new(chain[T])
	}
	q.over.reserve()
	q.pushChain(v)
}

// pushRing stores v behind the ring's last element; the ring must have
// a free slot.
func (q *Queue[T]) pushRing(v T) {
	i := int(q.head) + int(q.rn)
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = v
	q.rn++
	q.n++
}

// pushChain stores v at the chain's tail, behind every element of the
// ring, which are older; the tail segment must have a free slot.
func (q *Queue[T]) pushChain(v T) {
	c := q.over
	c.tail.slots[c.w] = v
	c.w++
	q.n++
}

// Front returns the front element without removing it; ok is false when
// the queue is empty.
func (q *Queue[T]) Front() (v T, ok bool) {
	if q.rn > 0 {
		return q.ring[q.head], true
	}
	if q.n > 0 {
		return q.over.head.slots[q.over.r], true
	}
	return v, false
}

// Pop removes and returns the front element; ok is false when the queue
// is empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	var zero T
	if q.rn > 0 {
		v, q.ring[q.head] = q.ring[q.head], zero
		if q.head++; int(q.head) == len(q.ring) {
			q.head = 0
		}
		q.rn--
		q.n--
		return v, true
	}
	if q.n == 0 {
		return v, false
	}
	c := q.over
	v, c.head.slots[c.r] = c.head.slots[c.r], zero
	c.r++
	q.n--
	if q.n == 0 {
		c.r, c.w = 0, 0 // the emptied chain keeps its last segment
	} else if c.r == segSlots {
		c.retire()
	}
	return v, true
}

// slots returns the number of element slots the queue holds: its ring,
// its chain's segments and their spares.
func (q *Queue[T]) slots() int {
	if q.over != nil {
		return len(q.ring) + q.over.segs*segSlots
	}
	return len(q.ring)
}

// grow unrolls the full ring, front first, into a larger array sized by
// append's growth policy.
func (q *Queue[T]) grow() {
	var zero T
	ring := append(q.ring, zero)[:0]
	ring = append(ring, q.ring[q.head:]...)
	ring = append(ring, q.ring[:q.head]...)
	q.ring = ring[:cap(ring)]
	q.head = 0
}

// reserve gives the chain a tail segment with a free slot, linking a
// spare or a new segment behind a full tail.
func (c *chain[T]) reserve() {
	if c.tail != nil && c.w < segSlots {
		return
	}
	s := c.spare
	if s != nil {
		c.spare, s.next = s.next, nil
	} else {
		s = new(segment[T])
		c.segs++
	}
	if c.tail == nil {
		c.head, c.r = s, 0
	} else {
		c.tail.next = s
	}
	c.tail, c.w = s, 0
}

// retire moves the drained head segment to the spare list.
func (c *chain[T]) retire() {
	s := c.head
	c.head, c.r = s.next, 0
	s.next, c.spare = c.spare, s
}
