// Clean counterpart: sweep bodies and launchers driven from ordered
// collections only — slices in, sorted keys where a map is
// unavoidable, maps used purely for O(1) lookup.
package sweepsinkok

import (
	"sort"

	"spiderfs/internal/sweep"
)

type total struct {
	name  string
	value float64
}

// slices are ordered; recording from one is fine.
func recordTotals(r *sweep.Rep, totals []total) {
	for _, t := range totals {
		r.Record(t.name, t.value)
	}
}

// map used as an index, drained through a sorted key slice before any
// metric is recorded.
func recordByName(r *sweep.Rep, byName map[string]float64) {
	names := make([]string, 0, len(byName))
	for name := range byName { //simlint:allow ordered-map-range keys are sorted before any metric is recorded
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.Record(name, byName[name])
	}
}

// map lookup (no range) feeding a sweep launch stays silent.
func runNamed(bodies map[string]sweep.Body, label string) (*sweep.Result, error) {
	return sweep.Run(sweep.Entry{Label: label, Replicas: 2, Body: bodies[label]}, 1, 0)
}

// Stands in for the callers a fixture package does not load.
var _ = []any{recordTotals, recordByName, runNamed}
