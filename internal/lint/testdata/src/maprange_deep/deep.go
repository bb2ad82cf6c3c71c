// Sabotage fixture for deep transitive hazard propagation: the map
// range sits three call hops from the scheduler sink. The one-hop rule
// this corpus originally pinned would have been blind here; the
// whole-program fixpoint reports the full chain
// drainAll → stage → relay → arm → sim.Engine.At.
package maprangedeep

import "spiderfs/internal/sim"

type task struct {
	name string
	at   sim.Time
}

// hop 3: the only function that touches the engine.
func arm(eng *sim.Engine, t task) {
	eng.At(t.at, func() {})
}

// hop 2.
func relay(eng *sim.Engine, t task) {
	arm(eng, t)
}

// hop 1.
func stage(eng *sim.Engine, t task) {
	relay(eng, t)
}

// The hazard: iteration order of pending leaks into event order three
// calls later.
func drainAll(eng *sim.Engine, pending map[string]sim.Time) {
	for name, at := range pending { // want ordered-map-range
		stage(eng, task{name: name, at: at})
	}
}

// Stands in for the callers and readers a fixture package does not load.
var _ = []any{drainAll, func(t task) string { return t.name }}
