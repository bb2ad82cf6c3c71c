// Clean fixture: simulation code reads time from the engine clock.
package wallclockok

import "spiderfs/internal/sim"

func horizon(eng *sim.Engine) sim.Time {
	return eng.Now() + 5*sim.Second
}

// Stands in for the callers a fixture package does not load.
var _ = []any{horizon}
