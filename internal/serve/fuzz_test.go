package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"spiderfs/internal/chaos"
	"spiderfs/internal/sweep"
)

// FuzzSpecNormalize feeds arbitrary JSON through the decoder the
// /sessions endpoint uses to Spec.Normalize, which must never panic. A
// spec Normalize accepts must sit within the work caps, and normalizing
// it again must succeed and leave its cache key unchanged: two
// submissions of the same work share one cached report.
func FuzzSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"workload","seed":7}`,
		`{"kind":"workload","seed":1,"full":true,"waves":64,"flows":8192,"bytes":1e12}`,
		`{"kind":"workload","waves":-1,"flows":0,"bytes":-0,"days":3,"sweep":"x","replicas":9}`,
		`{"kind":"workload","bytes":1e300}`,
		`{"kind":"chaos","seed":42,"days":31,"waves":2}`,
		`{"kind":"chaos","days":-1}`,
		`{"kind":"sweep","sweep":"e19-scrub-off","replicas":256,"full":true}`,
		`{"kind":"sweep","sweep":"a/b"}`,
		`{"kind":"sweep"}`,
		`{"kind":"nope"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.NewDecoder(bytes.NewReader(data)).Decode(&s) != nil {
			return
		}
		if s.Normalize() != nil {
			return
		}
		if s.Waves < 0 || s.Waves > maxWaves || s.Flows < 0 || s.Flows > maxFlows ||
			s.Bytes < 0 || s.Bytes > maxBytes || s.Days < 0 || s.Days > chaos.MaxDays ||
			s.Replicas < 0 || s.Replicas > sweep.MaxReplicas {
			t.Fatalf("accepted spec outside the work caps: %+v", s)
		}
		if s.Kind == "workload" && (s.Waves == 0 || s.Flows == 0 || s.Bytes == 0) {
			t.Fatalf("accepted workload spec without its defaults: %+v", s)
		}
		key := s.Key()
		if err := s.Normalize(); err != nil {
			t.Fatalf("second Normalize of %+v: %v", s, err)
		}
		if again := s.Key(); again != key {
			t.Fatalf("second Normalize moved the key: %s -> %s", key, again)
		}
	})
}

// refCache is FuzzCacheOps's reference: the GreedyDual rule of cache,
// with a linear scan over (h, stamp) for the victim in place of the heap.
type refCache struct {
	max       int
	entries   []*cacheEntry
	floor     int64
	uses      uint64
	evictions uint64
}

func (r *refCache) find(key string) int {
	for i, e := range r.entries {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (r *refCache) use(e *cacheEntry) {
	r.uses++
	e.h, e.stamp = r.floor+e.cost, r.uses
}

func (r *refCache) get(key string) (*Report, bool) {
	i := r.find(key)
	if i < 0 {
		return nil, false
	}
	r.use(r.entries[i])
	return r.entries[i].rep, true
}

func (r *refCache) put(key string, rep *Report, cost int64) {
	if r.max == 0 {
		return
	}
	if i := r.find(key); i >= 0 {
		r.entries[i].rep, r.entries[i].cost = rep, cost
		r.use(r.entries[i])
		return
	}
	if len(r.entries) == r.max {
		v := 0
		for i, e := range r.entries {
			if e.h < r.entries[v].h || e.h == r.entries[v].h && e.stamp < r.entries[v].stamp {
				v = i
			}
		}
		r.floor = r.entries[v].h
		r.entries = append(r.entries[:v], r.entries[v+1:]...)
		r.evictions++
	}
	e := &cacheEntry{key: key, rep: rep, cost: cost}
	r.use(e)
	r.entries = append(r.entries, e)
}

// FuzzCacheOps runs an arbitrary sequence of gets and costed puts
// against the cache and the linear-scan reference. The first byte sets
// the capacity (0-5); each following pair of bytes is one op: the low
// bit of the first picks get or put and the rest one of 12 keys, and the
// second is the put's cost. After every op both must agree on the hit
// and the report handed out, the eviction count, and which entries
// remain with which credits, so also on every victim; and every heap
// back-pointer must be current.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{2, 1, 0, 3, 0, 0, 0, 5, 0, 0, 0, 3, 0})                             // equal costs: LRU
	f.Add([]byte{2, 1, 200, 3, 1, 0, 0, 5, 1, 7, 1, 9, 1, 11, 1, 13, 1, 0, 0})       // one costly entry outlives cheap puts
	f.Add([]byte{4, 1, 9, 3, 9, 5, 9, 7, 9, 9, 9, 2, 0, 11, 1, 13, 0, 1, 255, 0, 0}) // ties, re-puts, refreshes
	f.Add([]byte{0, 1, 5, 0, 0})                                                     // disabled
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c, ref := newCache(int(data[0]%6)), &refCache{max: int(data[0] % 6)}
		for op, ops := 0, data[1:]; len(ops) >= 2; op, ops = op+1, ops[2:] {
			key := fmt.Sprint("k", (ops[0]>>1)%12)
			if ops[0]&1 == 0 {
				got, hit := c.get(key)
				want, wantHit := ref.get(key)
				if hit != wantHit || got != want {
					t.Fatalf("op %d get %s: hit %v, reference %v", op, key, hit, wantHit)
				}
			} else {
				rep := &Report{}
				c.put(key, rep, int64(ops[1]))
				ref.put(key, rep, int64(ops[1]))
			}
			if c.evictions != ref.evictions || c.floor != ref.floor || len(c.entries) != len(ref.entries) || len(c.order) != len(c.entries) {
				t.Fatalf("op %d: %d evictions, floor %d, %d entries; reference %d, %d, %d",
					op, c.evictions, c.floor, len(c.entries), ref.evictions, ref.floor, len(ref.entries))
			}
			for _, want := range ref.entries {
				e, ok := c.entries[want.key]
				if !ok || e.rep != want.rep || e.h != want.h || e.stamp != want.stamp {
					t.Fatalf("op %d: entry %s differs from the reference", op, want.key)
				}
			}
			for i, e := range c.order {
				if e.idx != i || c.entries[e.key] != e {
					t.Fatalf("op %d: heap slot %d holds %s with idx %d", op, i, e.key, e.idx)
				}
			}
		}
	})
}
