package sim

// Barrier collects completions from a fan-out of concurrent sub-jobs and
// invokes a callback when all of them have finished. It is the
// event-driven analogue of sync.WaitGroup for model code: a RAID write
// fans out to ten disks and completes when the slowest one does.
type Barrier struct {
	remaining int
	armed     bool
	done      func()
	doneFn    func() // b.Done as a func value, bound on first DoneFunc
}

// NewBarrier returns a barrier that calls done when Arm has been called
// and all added sub-jobs have completed.
func NewBarrier(done func()) *Barrier { return &Barrier{done: done} }

// Add registers n more sub-jobs. It must not be called after the barrier
// has fired.
func (b *Barrier) Add(n int) { b.remaining += n }

// Done marks one sub-job complete.
func (b *Barrier) Done() {
	b.remaining--
	if b.remaining < 0 {
		panic("sim: Barrier.Done called more times than Add") //simlint:allow no-library-panic caller-contract assertion: Done without a matching Add
	}
	b.fireIfReady()
}

// DoneFunc returns b.Done as a completion callback. The method value is
// bound once per barrier, so handing it to every sub-job of a fan-out
// allocates once rather than once per sub-job.
func (b *Barrier) DoneFunc() func() {
	if b.doneFn == nil {
		b.doneFn = b.Done
	}
	return b.doneFn
}

// Reset re-arms an idle barrier (the zero value, or one that has
// fired) for another fan-out that calls done. Its bound DoneFunc is
// kept, so a caller that reuses one barrier round after round
// allocates nothing per round.
func (b *Barrier) Reset(done func()) {
	b.armed = false
	b.done = done
}

// Arm declares that no further Add calls will occur. If all sub-jobs have
// already completed (including the zero-job case), the callback fires
// immediately.
func (b *Barrier) Arm() {
	b.armed = true
	b.fireIfReady()
}

func (b *Barrier) fireIfReady() {
	if b.armed && b.remaining == 0 && b.done != nil {
		fn := b.done
		b.done = nil
		fn()
	}
}

// Workers runs a closed population of k workers (at least one) over the
// items 0..n-1: the shape of a parallel tree walk, a purge sweep or
// make -j. Workers start in order 0..k-1; each takes the next untaken
// item i and calls step(w, i, next), and calling next hands worker w
// its following item. done (which may be nil) runs once every worker
// has found the list empty. A worker beyond the n-th would find it
// empty at once, so at most n are started.
func Workers(n, k int, step func(w, i int, next func()), done func()) {
	k = min(max(k, 1), n)
	taken := 0
	b := NewBarrier(done)
	nexts := make([]func(), k)
	take := func(w int) {
		if taken >= n {
			b.Done()
			return
		}
		i := taken
		taken++
		step(w, i, nexts[w])
	}
	for w := range nexts {
		nexts[w] = func() { take(w) }
	}
	b.Add(k)
	for w := range nexts {
		take(w)
	}
	b.Arm()
}
