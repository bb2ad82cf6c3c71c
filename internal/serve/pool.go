package serve

import "sync"

// pool keeps warm engine/fabric instances per shape. Acquire pops a
// warm instance or builds cold; Release resets through the
// Engine.Reset/Fabric.Reset seams and shelves the instance for the
// next session, discarding it instead if the reset is refused (a
// session that ended with flows in flight must not leak state into a
// later tenant).
type pool struct {
	mu    sync.Mutex
	small []*instance
	full  []*instance
	max   int // warm instances retained per shape

	builds   uint64
	reuses   uint64
	discards uint64
}

func newPool(n int) *pool { return &pool{max: max(n, 0)} }

func (p *pool) shelf(full bool) *[]*instance {
	if full {
		return &p.full
	}
	return &p.small
}

// acquire returns an instance for the shape and whether it came warm
// from the pool.
func (p *pool) acquire(full bool) (*instance, bool) {
	p.mu.Lock()
	shelf := p.shelf(full)
	if n := len(*shelf); n > 0 {
		inst := (*shelf)[n-1]
		(*shelf)[n-1] = nil
		*shelf = (*shelf)[:n-1]
		p.reuses++
		p.mu.Unlock()
		return inst, true
	}
	p.builds++
	p.mu.Unlock()
	// Build outside the lock: a full-scale fabric build is the expensive
	// path warm pooling exists to amortize, and holding the pool mutex
	// across it would serialize every concurrent cold session.
	return buildInstance(full), false
}

// release resets the instance and shelves it. A failed reset or a full
// shelf discards the instance instead — never an error for the caller,
// since the next acquire simply builds cold.
func (p *pool) release(inst *instance) {
	inst.eng.Reset()
	if err := inst.fab.Reset(); err != nil {
		p.mu.Lock()
		p.discards++
		p.mu.Unlock()
		return
	}
	p.mu.Lock()
	shelf := p.shelf(inst.full)
	if len(*shelf) < p.max {
		*shelf = append(*shelf, inst)
	} else {
		p.discards++
	}
	p.mu.Unlock()
}

// prewarm builds n instances of the shape directly into the shelf (up
// to the retention cap), so a benchmark's first sessions already hit
// the warm path.
func (p *pool) prewarm(n int, full bool) {
	for i := 0; i < n; i++ {
		inst := buildInstance(full)
		p.mu.Lock()
		shelf := p.shelf(full)
		if len(*shelf) >= p.max {
			p.mu.Unlock()
			return
		}
		*shelf = append(*shelf, inst)
		p.builds++
		p.mu.Unlock()
	}
}

// counters returns (builds, reuses, discards, warm-now).
func (p *pool) counters() (uint64, uint64, uint64, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.builds, p.reuses, p.discards, len(p.small) + len(p.full)
}
