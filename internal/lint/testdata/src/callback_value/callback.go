// Regression fixture for callee resolution of function and method
// values: a hazard handed off as a callback used to be invisible,
// because only direct call expressions grew call-graph edges. Passing
// engine.At itself — or a method whose body schedules — as a value now
// marks the handing function hazardous.
package callbackvalue

import "spiderfs/internal/sim"

type job struct {
	name string
	at   sim.Time
}

// runEach is an innocent higher-order driver: it never touches the
// engine itself, it only invokes what it was handed.
func runEach(jobs []job, f func(job)) {
	for _, j := range jobs {
		f(j)
	}
}

type sched struct {
	eng *sim.Engine
}

// fire is the direct hazard the callbacks below smuggle around.
func (s *sched) fire(j job) {
	s.eng.At(j.at, func() {})
}

// method value handed to a driver: flushAll never calls fire, but the
// reference s.fire is an edge, so the range is three names from the
// sink (flushAll → fire → sim.Engine.At).
func (s *sched) flushAll(pending map[string]sim.Time) {
	for name, at := range pending { // want ordered-map-range
		runEach([]job{{name: name, at: at}}, s.fire)
	}
}

// func value bound to a local first — same edge, one assignment later.
func (s *sched) flushViaLocal(pending map[string]sim.Time) {
	h := s.fire
	for name, at := range pending { // want ordered-map-range
		h(job{name: name, at: at})
	}
}

// the sink's own method value passed as a callback: eng.At handed to a
// scheduler-shaped parameter is a direct hazard.
func handOff(eng *sim.Engine, pending map[string]sim.Time) {
	schedule := func(at func(sim.Time, func()) sim.Event, t sim.Time) {
		at(t, func() {})
	}
	for _, t := range pending { // want ordered-map-range
		schedule(eng.At, t)
	}
}

// Stands in for the callers and readers a fixture package does not load.
var _ = []any{(*sched).flushAll, (*sched).flushViaLocal, handOff, func(j job) string { return j.name }}
