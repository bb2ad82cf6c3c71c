package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// op (experiment, wave, campaign or session) share its Op index.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Op     int    `json:"op"`     // -1 outside any op (set-up builds)
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call it.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	at := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: at, End: at, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	at := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = at
	t.mu.Unlock()
}

// durations returns the named spans' durations in ns, in start order.
func (t *tracer) durations(name string) []int64 {
	var ds []int64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.End-s.Start)
		}
	}
	return ds
}

// total returns the named spans' summed duration in ns.
func (t *tracer) total(name string) float64 {
	var sum int64
	for _, d := range t.durations(name) {
		sum += d
	}
	return float64(sum)
}

// computeSelf sets each span's self time: its duration minus the part of
// it that its child spans cover.
func (t *tracer) computeSelf() {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write stores the spans as <dir>/<workload>.spans.json.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	t.computeSelf()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans directory: %w", err)
	}
	path := filepath.Join(dir, workload+".spans.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
