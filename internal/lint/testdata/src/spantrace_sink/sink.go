// Sabotage fixture: the spantrace package is a recording sink — span
// IDs come from a per-tracer rng stream and every record lands in the
// exported trace, so feeding it from a map range bakes Go's random
// iteration order into the artifact. Flagged directly and one call
// away, like the trace and report sinks.
package spantracesink

import (
	"sort"

	"spiderfs/internal/spantrace"
)

// direct: the range and the Mark live in the same function.
func markAll(tr *spantrace.Tracer, parent spantrace.SpanID, hops map[string]int64) {
	for name, n := range hops { // want ordered-map-range
		tr.Mark(spantrace.Fabric, "hop", parent, n, name)
	}
}

func stamp(tr *spantrace.Tracer, parent spantrace.SpanID, op string, n int64) {
	sp := tr.Begin(spantrace.OSS, op, parent, n)
	tr.End(sp)
}

// one hop: the range feeds stamp, which records spans.
func stampAll(tr *spantrace.Tracer, parent spantrace.SpanID, ops map[string]int64) {
	for op, n := range ops { // want ordered-map-range
		stamp(tr, parent, op, n)
	}
}

// sorted-keys rewrite: the deterministic shape the check pushes toward.
func markSorted(tr *spantrace.Tracer, parent spantrace.SpanID, hops map[string]int64) {
	names := make([]string, 0, len(hops))
	for name := range hops { //simlint:allow ordered-map-range keys are sorted before any span is recorded
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tr.Mark(spantrace.Fabric, "hop", parent, hops[name], name)
	}
}

// Stands in for the callers a fixture package does not load.
var _ = []any{markAll, stampAll, markSorted}
