// Sabotage fixture: the sweep package is a recording sink — replica
// metrics are merged in first-recorded order and hashed into the sweep
// fingerprint, so feeding Record (or the runner itself) from a map
// range bakes Go's random iteration order into the merged report.
// Flagged directly and one call away, like the trace and span sinks.
package sweepsink

import (
	"sort"

	"spiderfs/internal/sweep"
)

// direct: the range and the Record live in the same function.
func recordAll(r *sweep.Rep, totals map[string]float64) {
	for name, v := range totals { // want ordered-map-range
		r.Record(name, v)
	}
}

func put(r *sweep.Rep, name string, v float64) {
	r.Record(name, v)
}

// one hop: the range feeds put, which records metrics.
func putAll(r *sweep.Rep, totals map[string]float64) {
	for name, v := range totals { // want ordered-map-range
		put(r, name, v)
	}
}

// launching sweeps per map entry is just as nondeterministic: the
// result order follows iteration order.
func runPerEntry(bodies map[string]sweep.Body) []*sweep.Result {
	var out []*sweep.Result
	for label, body := range bodies { // want ordered-map-range
		res, err := sweep.Run(sweep.Entry{Label: label, Replicas: 2, Body: body}, 1, 0)
		if err == nil {
			out = append(out, res)
		}
	}
	return out
}

// sorted-keys rewrite: the deterministic shape the check pushes toward.
func recordSorted(r *sweep.Rep, totals map[string]float64) {
	names := make([]string, 0, len(totals))
	for name := range totals { //simlint:allow ordered-map-range keys are sorted before any metric is recorded
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.Record(name, totals[name])
	}
}

// Stands in for the callers a fixture package does not load.
var _ = []any{recordAll, putAll, runPerEntry, recordSorted}
