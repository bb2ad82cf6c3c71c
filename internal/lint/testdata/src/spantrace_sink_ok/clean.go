// Clean counterpart: span recording driven from ordered collections
// only — slices in, sorted keys where a map is unavoidable.
package spantracesinkok

import (
	"sort"

	"spiderfs/internal/spantrace"
)

type hop struct {
	name  string
	bytes int64
}

// slices are ordered; recording from one is fine.
func markHops(tr *spantrace.Tracer, parent spantrace.SpanID, hops []hop) {
	for _, h := range hops {
		tr.Mark(spantrace.Fabric, "hop", parent, h.bytes, h.name)
	}
}

// map used as a set, drained through a sorted key slice before any
// span is recorded.
func markByName(tr *spantrace.Tracer, parent spantrace.SpanID, byName map[string]int64) {
	names := make([]string, 0, len(byName))
	for name := range byName { //simlint:allow ordered-map-range keys are sorted before any span is recorded
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tr.Mark(spantrace.Fabric, "hop", parent, byName[name], name)
	}
}

// Stands in for the callers a fixture package does not load.
var _ = []any{markHops, markByName}
