package sim

import (
	"math"
	"math/bits"
)

// eventHeap is a binary min-heap on (t, seq), the near and far tiers.
// The key is a strict total order, so every correct heap pops the same
// sequence of events.
type eventHeap []*event

func (h eventHeap) set(i int, ev *event) {
	h[i] = ev
	ev.idx = int32(i)
}

// up moves h[j] toward the root until its parent is before it.
func (h eventHeap) up(j int) {
	ev := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !ev.before(h[i]) {
			break
		}
		h.set(j, h[i])
		j = i
	}
	h.set(j, ev)
}

// down moves h[i] toward the leaves until both children are after it,
// and reports whether it moved.
func (h eventHeap) down(i int) bool {
	ev := h[i]
	i0, n := i, len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].before(h[j]) {
			j = r
		}
		if !h[j].before(ev) {
			break
		}
		h.set(i, h[j])
		i = j
	}
	h.set(i, ev)
	return i > i0
}

// fix restores heap order after h[i]'s key changed.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// push adds ev to the heap.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// remove takes h[i] out of the heap.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	*h = old[:n]
	if i < n {
		old.set(i, old[n])
		(*h).fix(i)
	}
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	ev := old[0]
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return ev
}

// tier says where a scheduled event waits.
type tier uint8

const (
	inLane tier = iota // the same-instant lane: t == now
	inNear             // the near heap: t < top
	inRing             // a ring bucket: top <= t < top+span
	inFar              // the far heap: t >= top+span
	inFree             // not scheduled: fired, canceled or reset
)

// pendingSet holds every scheduled event not in the same-instant lane,
// in three tiers split at top = base<<shift and top+span, where a
// bucket spans w = 1<<shift ns and the ring's nb buckets span nb·w:
//
//   - near, a binary heap of the events due before top;
//   - ring, a calendar of nb buckets (R. Brown, "Calendar queues",
//     CACM 31(10), 1988) for the events in [top, top+span): bucket
//     number b = ⌊t/w⌋ is an unsorted, intrusive, doubly-linked list in
//     slot b mod nb, so linking and unlinking are O(1);
//   - far, a binary heap of the events due at top+span or later.
//
// Every near event precedes every ring event, and bucket b's events
// precede bucket b+1's, which precede every far event. So the set's
// minimum is near's, or, with near empty, the minimum of the first
// non-empty bucket: load moves that bucket into near and advances base
// past it, and migrate then moves the far events the wider window now
// covers into the ring. Within near, (t, seq) orders exactly, so the
// set pops in exact (t, seq) order whatever its geometry.
//
// The set sizes itself: rebuild picks nb and w from the events it holds
// whenever its size leaves [shrink, grow]. Below ringMin events the ring
// has no buckets and top is at infinity (base is noRing), so near holds
// every event: the set is one binary heap, by the same code path.
type pendingSet struct {
	near   eventHeap
	far    eventHeap
	ring   []*event // bucket heads by slot
	occ    []uint64 // one bit per slot, set while its bucket is non-empty
	base   int64    // the first bucket number the ring covers
	shift  uint     // log2 of the bucket width in ns
	inRing int      // events linked into the ring
	grow   int      // rebuild when the set grows past this size
	shrink int      // rebuild when the set shrinks below this size

	// Work counts (PendingWork): filings by tier, bucket loads and
	// rebuilds.
	filed           [inFree]uint64
	loads, rebuilds uint64
}

// PendingWork counts what an engine's pending set did: plain integers,
// a function of the model and its seed, never of the host. A change
// that makes the set do less work shows here exactly, where a wall-clock
// reading needs many paired runs to resolve it.
type PendingWork struct {
	// Near, Ring and Far count the events filed into each tier: on
	// scheduling, on a rebuild's refiling and on a migration from far.
	Near, Ring, Far uint64
	Loads           uint64 // ring buckets moved into the near heap
	Rebuilds        uint64 // ring resizings
}

// ringMin is the set size at which the ring gets buckets. Below it the
// set is one binary heap of a few cache-resident levels, and engines
// that stay shallow (a paper-storage namespace's few hundred events, a
// pooled serve session's hundred or so) keep no ring and pay no
// rebuild. The smallest ring, ringMin buckets, is one Reset keeps
// (resetKeep).
const ringMin = 1024

// noRing is base while the ring has no buckets: top lies past every
// bucket number, as the bucket width is at least 2 ns.
const noRing = math.MaxInt64

// emptySet returns a set that holds no events, over the given storage:
// the state a fresh engine starts in and Reset returns to, the one a
// rebuild below ringMin leaves. Its ring has no buckets and top is at
// infinity (buckets are 2 ns wide, so even MaxTime's lies below
// noRing), so the first event is filed straight into near, and the
// first rebuild comes when the set grows past ringMin−1 events.
func emptySet(near, far eventHeap, ring []*event, occ []uint64) pendingSet {
	return pendingSet{near: near, far: far, ring: ring, occ: occ, base: noRing, shift: 1, grow: ringMin - 1}
}

// size counts the events in the set.
func (s *pendingSet) size() int { return len(s.near) + s.inRing + len(s.far) }

// tierOf returns the tier an event at t belongs in.
func (s *pendingSet) tierOf(t Time) tier {
	b := int64(t) >> s.shift
	switch {
	case b < s.base:
		return inNear
	case b-s.base < int64(len(s.ring)):
		return inRing
	}
	return inFar
}

// heap returns the near or the far heap, by tier.
func (s *pendingSet) heap(tr tier) *eventHeap {
	if tr == inNear {
		return &s.near
	}
	return &s.far
}

// slot returns the ring slot of ev's bucket.
func (s *pendingSet) slot(ev *event) int {
	return int(int64(ev.t)>>s.shift) & (len(s.ring) - 1)
}

// add files ev in the tier its time belongs in.
func (s *pendingSet) add(ev *event) {
	ev.tier = s.tierOf(ev.t)
	s.filed[ev.tier]++
	if ev.tier == inRing {
		s.link(ev)
	} else {
		s.heap(ev.tier).push(ev)
	}
}

// remove takes a pending event out of its tier.
func (s *pendingSet) remove(ev *event) {
	if ev.tier == inRing {
		s.unlink(ev)
	} else {
		s.heap(ev.tier).remove(int(ev.idx))
	}
}

// link puts ev at the head of its bucket, which the ring covers.
func (s *pendingSet) link(ev *event) {
	i := s.slot(ev)
	head := s.ring[i]
	ev.prev, ev.next = nil, head
	if head != nil {
		head.prev = ev
	} else {
		s.occ[i>>6] |= 1 << (i & 63)
	}
	s.ring[i] = ev
	s.inRing++
}

// unlink takes ev out of its ring bucket.
func (s *pendingSet) unlink(ev *event) {
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		i := s.slot(ev)
		s.ring[i] = ev.next
		if ev.next == nil {
			s.occ[i>>6] &^= 1 << (i & 63)
		}
	}
	ev.prev, ev.next = nil, nil
	s.inRing--
}

// load moves the ring's first non-empty bucket into near and advances
// the ring past it. The ring must hold an event and near must be empty.
func (s *pendingSet) load() {
	s.loads++
	mask := len(s.ring) - 1
	i := int(s.base) & mask
	w := i >> 6
	word := s.occ[w] &^ (1<<(i&63) - 1)
	for word == 0 {
		w = (w + 1) & (len(s.occ) - 1)
		word = s.occ[w]
	}
	j := w<<6 | bits.TrailingZeros64(word)
	s.base += int64((j - i) & mask)
	ev := s.ring[j]
	s.ring[j] = nil
	s.occ[w] &^= 1 << (j & 63)
	for ev != nil {
		next := ev.next
		ev.prev, ev.next = nil, nil
		ev.tier = inNear
		s.near.push(ev)
		s.inRing--
		ev = next
	}
	s.base++
}

// takeRing empties the ring and returns its events as one chain
// through next.
func (s *pendingSet) takeRing() *event {
	var chain *event
	for w, word := range s.occ {
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			ev := s.ring[i]
			s.ring[i] = nil
			for ev != nil {
				next := ev.next
				ev.prev, ev.next = nil, chain
				chain = ev
				ev = next
			}
		}
		s.occ[w] = 0
	}
	s.inRing = 0
	return chain
}

// first returns the set's earliest event, or nil when it holds none.
// On the common path near's first event is it, with no call.
func (s *pendingSet) first() *event {
	if len(s.near) > 0 {
		return s.near[0]
	}
	return s.settle()
}

// settle loads ring buckets into the empty near heap until it holds an
// event, then returns near's first: the set's earliest event, or nil
// when the set holds none.
func (s *pendingSet) settle() *event {
	for len(s.near) == 0 {
		if s.inRing == 0 {
			if len(s.far) == 0 {
				return nil
			}
			// The ring is empty: move its window up to far's first event.
			s.base = int64(s.far[0].t) >> s.shift
		} else {
			s.load()
		}
		s.migrate()
	}
	return s.near[0]
}

// migrate moves the far events the ring's window now covers into the
// ring, or into near when they are due before top.
func (s *pendingSet) migrate() {
	for len(s.far) > 0 && int64(s.far[0].t)>>s.shift-s.base < int64(len(s.ring)) {
		s.add(s.far.pop())
	}
}

// rebuild sizes the ring for the events the set holds now and refiles
// the ring's events under the new geometry.
//
// The geometry rule: nb is the power of two at or above the set's size,
// and the ring spans twice the power of two at or above the horizon
// (t − now) of three quarters of the set's events, so the bulk of the
// events, and of those scheduled at similar delays, land in the ring
// rather than in far. Below ringMin events nb is 0. The next rebuild
// comes when the size doubles or halves, so a rebuild's O(n) cost is
// amortized over at least n/2 operations.
func (e *Engine) rebuild() {
	s := &e.set
	s.rebuilds++
	n := s.size()
	nb := 0
	if n >= ringMin {
		nb = 1 << bits.Len(uint(n-1))
	}
	// Refile the ring's events, and near's too when the ring gets
	// buckets, as top then comes down from infinity.
	chain := s.takeRing()
	if s.base == noRing && nb > 0 {
		for _, ev := range s.near {
			ev.next = chain
			chain = ev
		}
		clear(s.near)
		s.near = s.near[:0]
	}
	shift, base := max(s.shift, 1), int64(noRing)
	if nb > 0 {
		shift = uint(max(e.horizonBits(chain)+1-bits.Len(uint(nb-1)), 1))
		base = int64(e.now) >> shift
	}
	// While near holds events, top = base<<shift must not move back, or
	// a later event could land in the ring behind them. Bucket numbers,
	// not times, keep this free of overflow.
	if nb > 0 && s.base != noRing {
		old := s.base
		if shift >= s.shift {
			d := shift - s.shift
			if old >>= d; old<<d < s.base {
				old++
			}
		} else {
			old <<= s.shift - shift
		}
		base = max(base, old)
	}
	s.base, s.shift = base, shift
	if cap(s.ring) < nb {
		s.ring = make([]*event, nb)
		s.occ = make([]uint64, (nb+63)/64)
	}
	s.ring, s.occ = s.ring[:nb], s.occ[:(nb+63)/64]
	for chain != nil {
		next := chain.next
		chain.next = nil
		s.add(chain)
		chain = next
	}
	s.migrate()
	s.grow, s.shrink = ringMin-1, 0
	if nb > 0 {
		s.grow, s.shrink = 2*n, n/2
	}
}

// horizonBits returns the bit length of the horizon t − now that three
// quarters of the set's events, the ring's taken from chain, lie below:
// that horizon is under 1<<horizonBits. A histogram of horizons by bit
// length finds it in one pass with no allocation.
func (e *Engine) horizonBits(chain *event) int {
	var hist [64]int
	n := 0
	s := &e.set
	for _, h := range [2]eventHeap{s.near, s.far} {
		for _, ev := range h {
			hist[bits.Len64(uint64(ev.t-e.now))]++
		}
		n += len(h)
	}
	for ev := chain; ev != nil; ev = ev.next {
		hist[bits.Len64(uint64(ev.t-e.now))]++
		n++
	}
	k := n - n/4
	for l, c := range hist {
		if k -= c; k <= 0 {
			return l
		}
	}
	return len(hist) - 1
}
