package serve

import "container/list"

// cache is an LRU result cache keyed on canonical Spec.Key() strings.
// Reports are immutable once published, so hits hand out the shared
// pointer. The map is only ever indexed by key — the eviction order
// lives in the intrusive list, never in map iteration.
type cache struct {
	max     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key string
	rep *Report
}

func newCache(n int) *cache {
	return &cache{max: max(n, 0), order: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the cached report for key, refreshing its recency. The
// caller holds the service mutex.
func (c *cache) get(key string) (*Report, bool) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).rep, true
	}
	c.misses++
	return nil, false
}

// put inserts (or refreshes) a report, evicting the least recently
// used entry past capacity. The caller holds the service mutex.
func (c *cache) put(key string, rep *Report) {
	if c.max == 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).rep = rep
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, rep: rep})
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.evictions++
	}
}
