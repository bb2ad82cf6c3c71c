// Clean counterpart to maprange_deep: the same three-hop call chain
// down to the scheduler, but driven from an insertion-ordered slice.
// The map (if the caller keeps one) is a lookup index, never ranged —
// so deep propagation alone produces no diagnostic without a map range
// to anchor it.
package maprangedeepok

import "spiderfs/internal/sim"

type task struct {
	name string
	at   sim.Time
}

func arm(eng *sim.Engine, t task) {
	eng.At(t.at, func() {})
}

func relay(eng *sim.Engine, t task) {
	arm(eng, t)
}

func stage(eng *sim.Engine, t task) {
	relay(eng, t)
}

// Ordered registry drives the scheduling; deterministic at any depth.
func drainAll(eng *sim.Engine, pending []task) {
	for _, t := range pending {
		stage(eng, t)
	}
}

// Stands in for the callers and readers a fixture package does not load.
var _ = []any{drainAll, func(t task) string { return t.name }}
