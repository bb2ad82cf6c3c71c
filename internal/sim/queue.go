package sim

// Queue is a FIFO ring buffer: Push, Front, Pop and Len are O(1), and
// the zero value is an empty queue ready to use. Popped slots are
// zeroed so the queue pins no closure or pointer it has handed out.
//
// The ring grows only when full, through append's own growth policy, so
// it never holds more memory than the plain slice FIFO it replaces. (A
// head index that compacts at half its slice would let every deep queue
// grow to twice its peak depth.)
type Queue[T any] struct {
	buf  []T // len(buf) == cap(buf): every slot is usable
	head int // index of the front element in buf
	n    int // number of queued elements
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the back of the queue.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
}

// Front returns the front element without removing it; ok is false when
// the queue is empty.
func (q *Queue[T]) Front() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// Pop removes and returns the front element; ok is false when the queue
// is empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if v, ok = q.Front(); ok {
		var zero T
		q.buf[q.head] = zero
		q.head++
		if q.head == len(q.buf) {
			q.head = 0
		}
		q.n--
	}
	return v, ok
}

// grow unrolls the full ring, front first, into a larger array sized by
// append's growth policy.
func (q *Queue[T]) grow() {
	var zero T
	buf := append(q.buf, zero)[:0]
	buf = append(buf, q.buf[q.head:]...)
	buf = append(buf, q.buf[:q.head]...)
	q.buf = buf[:cap(buf)]
	q.head = 0
}
