// Package sweep is the deterministic parallel replica runner: it fans
// the N independent replicas of a seed sweep across a bounded worker
// pool and merges the results in replica-index order, so the aggregate
// report is byte-identical whatever GOMAXPROCS or the scheduler do.
//
// The determinism contract has three legs:
//
//  1. Every replica's randomness is derived up front, serially, from the
//     sweep seed via internal/rng stream splitting — worker scheduling
//     can reorder execution but never the streams.
//  2. Workers share nothing: each replica body builds its own sim.Engine
//     and model stack and writes only its own result slot.
//  3. Results are merged by replica index, never by completion order,
//     and the package itself is registered as an ordered sink with
//     simlint (feeding a Rep from map iteration is flagged).
//
// The serial-vs-parallel double-run test in this package and the
// `-count=2 'Deterministic'` line in verify.sh enforce the contract.
package sweep

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"

	"spiderfs/internal/rng"
)

// Metric is one named scalar a replica records. Metrics are kept in
// record order; the merge aggregates same-named metrics across replicas.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Rep is the per-replica context handed to a Body. It is confined to
// one worker goroutine for the duration of the body.
type Rep struct {
	// Index is the replica's position in the sweep, 0-based.
	Index int
	// Seed is a 64-bit seed derived for this replica; bodies that build
	// models seeded by integer (chaos.Config.Seed and friends) use it.
	Seed uint64
	// Src is the replica's private random stream, split from the sweep
	// seed by replica index. Never shared between replicas.
	Src *rng.Source

	metrics []Metric
}

// Record appends one named observation to the replica's result.
func (r *Rep) Record(name string, v float64) {
	r.metrics = append(r.metrics, Metric{Name: name, Value: v})
}

// Body runs one replica end to end. Bodies must draw all randomness
// from r.Src/r.Seed and must not touch state shared with other
// replicas; a returned error (or panic, which the pool converts to an
// error) marks the replica failed without aborting the sweep.
type Body func(r *Rep) error

// MaxReplicas caps the replica count of one sweep: Run refuses more,
// and `spidersim sweep -replicas` and a service sweep session refuse a
// larger override before building anything, so no request can hold
// the worker pool for hours or allocate a replica table without bound.
// Every catalog entry sits far below it.
const MaxReplicas = 256

// Entry is one named sweep: a label, a replica count and a body. It
// carries no seed — Run takes one — so a catalog of entries serves
// every seed.
type Entry struct {
	// Label names the sweep; it salts the replica streams, so two sweeps
	// of the same seed with different labels are independent.
	Label    string
	Replicas int
	Body     Body
}

// Replica is one replica's merged result.
type Replica struct {
	Index   int      `json:"index"`
	Seed    uint64   `json:"seed"`
	Metrics []Metric `json:"metrics"`
	Err     string   `json:"err,omitempty"`
}

// Result is the merged outcome of a sweep: every replica in index
// order, independent of worker count and scheduling.
type Result struct {
	Label    string    `json:"label"`
	Seed     uint64    `json:"seed"`
	Replicas []Replica `json:"replicas"`
	Errors   int       `json:"errors"`
}

// Run executes the sweep at seed on a pool of workers (<= 0 means
// runtime.GOMAXPROCS(0)) and returns the merged result. Two runs of the
// same entry and seed produce byte-identical merged reports whatever
// the worker count.
func Run(e Entry, seed uint64, workers int) (*Result, error) {
	n := e.Replicas
	if n <= 0 || n > MaxReplicas {
		return nil, fmt.Errorf("sweep: entry %q needs Replicas in [1, %d], has %d", e.Label, MaxReplicas, n)
	}
	if e.Body == nil {
		return nil, fmt.Errorf("sweep: entry %q has a nil body", e.Label)
	}

	// Derive every replica's stream serially, in index order, before any
	// worker starts: Split advances the parent stream, so derivation
	// order is part of the contract.
	root := rng.New(seed).Split("sweep/" + e.Label)
	reps := make([]*Rep, n)
	for i := 0; i < n; i++ {
		src := root.Split(fmt.Sprintf("replica-%05d", i))
		reps[i] = &Rep{Index: i, Seed: src.Uint64(), Src: src}
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	// Shared-nothing pool: each worker claims indices from the channel
	// and writes only its own result slots; the merge below never looks
	// at completion order. This own-slot shape (out[i] with a
	// worker-local i) is the one goroutine write simlint's
	// shard-isolation check sanctions in this package.
	out := make([]Replica, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = runReplica(reps[i], e.Body)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	res := &Result{Label: e.Label, Seed: seed, Replicas: out}
	for i := range out {
		if out[i].Err != "" {
			res.Errors++
		}
	}
	return res, nil
}

// runReplica executes one body, converting a panic into a per-replica
// error so a single bad configuration cannot take down the whole sweep.
func runReplica(r *Rep, body Body) (out Replica) {
	out = Replica{Index: r.Index, Seed: r.Seed}
	defer func() {
		if v := recover(); v != nil {
			out.Err = fmt.Sprintf("panic: %v", v)
			out.Metrics = nil
		}
	}()
	if err := body(r); err != nil {
		out.Err = err.Error()
	}
	out.Metrics = r.metrics
	return out
}

// Fingerprint hashes the merged result — label, seed, and every
// replica's seed, metrics, and error in index order. Serial and
// parallel runs of the same entry and seed must agree.
func (res *Result) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	w64 := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(b[:0], v)) }
	h.Write([]byte(res.Label))
	w64(res.Seed)
	for _, r := range res.Replicas {
		w64(uint64(int64(r.Index)))
		w64(r.Seed)
		for _, m := range r.Metrics {
			h.Write([]byte(m.Name))
			w64(math.Float64bits(m.Value))
		}
		h.Write([]byte(r.Err))
	}
	return h.Sum64()
}
