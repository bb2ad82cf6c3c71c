package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// setupReps is how many times an untraced run sets its workload up.
// setup_s is the median; only the last set-up instance runs.
const setupReps = 9

// options are one run's inputs. Everything the simulator receives is a
// function of seed and work alone.
type options struct {
	seed uint64
	// work scales the calibrated amount of work: 1 is what --seconds 10
	// runs. It scales loop counts only, never model parameters.
	work float64
	// expect, when set, is what the simulated results must reproduce:
	// the recorded fingerprint of these inputs.
	expect *expectation
}

// scaled returns base scaled by the run's work, at least 1.
func (o options) scaled(base int) int {
	n := int(math.Round(float64(base) * o.work))
	if n < 1 {
		return 1
	}
	return n
}

// expectation is the recorded result of one workload's seed-42 run.
type expectation struct {
	Fingerprint string `json:"fingerprint"`
	// Headlines are the paper-storage experiments' headline values, as
	// the root bench_test.go reports them.
	Headlines map[string]float64 `json:"headlines,omitempty"`
}

// metric is one named number with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// String renders a metric for the human-readable lines.
func (m metric) String() string { return fmt.Sprintf("%-32s %16.6g %s", m.name, m.value, m.unit) }

// find returns the named metric's value, or 0 when ms lacks it.
func find(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// workload is one of the benchmark's input sets.
type workload struct {
	name string
	// setup builds what the timed phase needs: models, a fabric, or a
	// running service. It records spans around its builds on tr, which
	// is nil in an untraced run.
	setup func(o options, tr *tracer) (job, error)
}

// job is one set-up workload, run once.
type job interface {
	// run is the timed phase: the workload's fixed work.
	run(tr *tracer) *outcome
	// verify checks the results after the timed phase; re-runs that
	// check the results happen here, outside the timing.
	verify(out *outcome)
	// close releases what setup started.
	close()
}

// outcome is what a run produced.
type outcome struct {
	// attempted counts ops: experiments, waves, campaigns or sessions.
	attempted, failed int
	// fp folds the simulated headline values in op order.
	fp hash.Hash64
	// headlines are the values the paper's claims are checked on.
	headlines []metric
	// counters are simulated quantities. They repeat exactly for the
	// same (seed, work), join the fingerprint, and must not differ
	// between a traced and an untraced run.
	counters []metric
	// gauges are host-side or scheduling-dependent numbers: the
	// service's cache hits depend on how its two callers interleave.
	gauges   []metric
	problems []string
}

func newOutcome() *outcome { return &outcome{fp: fnv.New64a()} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) counter(name string, v float64) {
	o.counters = append(o.counters, metric{name: name, value: v})
}

func (o *outcome) gauge(name string, v float64) {
	o.gauges = append(o.gauges, metric{name: name, value: v})
}

func (o *outcome) headline(name string, v float64) {
	o.headlines = append(o.headlines, metric{name: name, value: v})
}

func (o *outcome) foldWord(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	o.fp.Write(b[:])
}

func (o *outcome) foldFloat(v float64) { o.foldWord(math.Float64bits(v)) }

func (o *outcome) foldString(s string) {
	o.foldWord(uint64(len(s)))
	o.fp.Write([]byte(s))
}

// fingerprint folds the op results and the counters into one hex
// string.
func (o *outcome) fingerprint() string {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], o.fp.Sum64())
	h.Write(b[:])
	for _, m := range o.counters {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.value))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// gate compares the results with the recorded expectation.
func (o *outcome) gate(want *expectation) {
	if want == nil {
		return
	}
	if got := o.fingerprint(); got != want.Fingerprint {
		o.problem("fingerprint %s, recorded %s", got, want.Fingerprint)
	}
	if len(want.Headlines) != len(o.headlines) {
		o.problem("%d headline values, recorded %d", len(o.headlines), len(want.Headlines))
	}
	for _, h := range o.headlines {
		if v, ok := want.Headlines[h.name]; !ok || v != h.value {
			o.problem("headline %s = %s, recorded %s", h.name,
				strconv.FormatFloat(h.value, 'g', -1, 64), strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
}

// result is one measured run of a workload.
type result struct {
	out        *outcome
	setupS     []float64
	wallS      float64
	allocMB    float64
	allocsM    float64
	heapPeakMB float64
}

// measure sets the workload up reps times, runs the last instance as the
// timed phase, and verifies the results outside the timing.
func measure(w workload, o options, tr *tracer, reps int) (*result, error) {
	r := &result{}
	var j job
	for i := 0; i < reps; i++ {
		if j != nil {
			j.close()
			j = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if j, err = w.setup(o, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
	}
	defer j.close()

	heap := watchHeap()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	r.out = j.run(tr)
	r.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	r.allocsM = float64(after.Mallocs-before.Mallocs) / 1e6
	r.heapPeakMB = heap.stop()

	j.verify(r.out)
	r.out.gate(o.expect)
	if r.out.failed > 0 {
		r.out.problem("%d of %d ops failed", r.out.failed, r.out.attempted)
	}
	return r, nil
}

// endToEnd returns the metrics a user of the simulator sees.
func endToEnd(r *result) []metric {
	return []metric{
		{"setup_s", "s", median(r.setupS)},
		{"wall_s", "s", r.wallS},
		{"alloc_mb", "MB", r.allocMB},
		{"allocs_m", "millions", r.allocsM},
		{"heap_peak_mb", "MB", r.heapPeakMB},
	}
}

// heapWatch records the largest live heap any garbage collection found
// while it watched. Peak RSS would depend on when collections happen to
// run; the live heap a collection marks does not.
type heapWatch struct {
	peak atomic.Uint64
	done atomic.Bool
}

// sentinel is large enough to stay out of the tiny allocator, whose
// objects' finalizers may never run.
type sentinel struct{ _ [32]byte }

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

// arm drops a sentinel whose finalizer runs after the next collection,
// samples the live heap and re-arms, once per GC cycle.
func (w *heapWatch) arm() {
	runtime.SetFinalizer(new(sentinel), func(*sentinel) {
		w.sample()
		if !w.done.Load() {
			w.arm()
		}
	})
}

func (w *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for old := w.peak.Load(); v > old && !w.peak.CompareAndSwap(old, v); old = w.peak.Load() {
	}
}

// stop collects once more, ends the watch and returns the peak in MB.
func (w *heapWatch) stop() float64 {
	runtime.GC()
	w.done.Store(true)
	w.sample()
	return float64(w.peak.Load()) / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of ns, as float64.
func quantile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(s[k])
}
