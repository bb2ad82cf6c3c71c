package serve

import "container/heap"

// cache is a cost-aware result cache keyed on canonical Spec.Key()
// strings. It evicts by GreedyDual (Young 1994; Cao & Irani, USITS 1997)
// without the size term, because it is bounded in entries, not bytes:
// each entry holds a credit h = floor + cost, where cost is what its
// report took to compute; a hit or a re-put renews the credit; and
// eviction removes the entry with the smallest (h, last-use stamp) and
// raises the floor to its credit. Cheap reports therefore age out first,
// and an expensive one goes only once enough cheaper traffic has raised
// the floor past its credit. With equal costs (every cost is 0 without a
// Config.Clock) the order is exactly least recently used.
//
// Reports are immutable once published, so hits hand out the shared
// pointer. The map is only ever indexed by key — the eviction order
// lives in the heap, never in map iteration.
type cache struct {
	max     int
	entries map[string]*cacheEntry
	order   cacheHeap
	// floor only rises to a victim's credit, which exceeds the floor by
	// at most the victim's cost, so it stays below the summed run time of
	// the evicted reports, centuries short of overflowing.
	floor int64
	uses  uint64 // the last stamp handed out

	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key   string
	rep   *Report
	cost  int64
	h     int64
	stamp uint64
	idx   int // position in the heap
}

func newCache(n int) *cache {
	return &cache{max: max(n, 0), entries: make(map[string]*cacheEntry)}
}

// get returns the cached report for key, renewing its credit. The caller
// holds the service mutex.
func (c *cache) get(key string) (*Report, bool) {
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.use(e)
	heap.Fix(&c.order, e.idx)
	return e.rep, true
}

// put inserts (or refreshes) a report that took cost nanoseconds to
// compute, first evicting the entry with the smallest credit when the
// cache is full. The caller holds the service mutex.
func (c *cache) put(key string, rep *Report, cost int64) {
	if c.max == 0 {
		return
	}
	cost = max(cost, 0) // a wall clock stepped back mid-run
	if e, ok := c.entries[key]; ok {
		e.rep, e.cost = rep, cost
		c.use(e)
		heap.Fix(&c.order, e.idx)
		return
	}
	if len(c.order) == c.max {
		victim := heap.Pop(&c.order).(*cacheEntry)
		delete(c.entries, victim.key)
		c.floor = victim.h
		c.evictions++
	}
	e := &cacheEntry{key: key, rep: rep, cost: cost}
	c.use(e)
	c.entries[key] = e
	heap.Push(&c.order, e)
}

// use renews e's credit and stamp; the caller restores the heap order.
func (c *cache) use(e *cacheEntry) {
	c.uses++
	e.h, e.stamp = c.floor+e.cost, c.uses
}

// cacheHeap is a min-heap of entries on (h, stamp) that keeps each
// entry's idx current, so a hit or a put costs O(log n).
type cacheHeap []*cacheEntry

func (h cacheHeap) Len() int { return len(h) }

func (h cacheHeap) Less(i, j int) bool {
	if h[i].h != h[j].h {
		return h[i].h < h[j].h
	}
	return h[i].stamp < h[j].stamp
}

func (h cacheHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *cacheHeap) Push(x any) {
	e := x.(*cacheEntry)
	e.idx = len(*h)
	*h = append(*h, e)
}

func (h *cacheHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}
