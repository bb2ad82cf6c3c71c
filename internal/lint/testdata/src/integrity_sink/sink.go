// Sabotage fixture: the integrity package is a scheduling sink — a
// scrubber's scan order and an E19 replica's repair sequence feed the
// campaign and sweep fingerprints, so launching scrubbers or replaying
// scenarios from a map range bakes Go's random iteration order into
// the artifacts. Flagged directly and one call away, like the trace,
// span, and sweep sinks.
package integritysink

import (
	"sort"

	"spiderfs/internal/integrity"
	"spiderfs/internal/raid"
	"spiderfs/internal/sim"
)

// direct: the range and the scrubber launch live in the same function.
func startAll(eng *sim.Engine, groups map[string]*raid.Group) []*integrity.Scrubber {
	var out []*integrity.Scrubber
	for _, g := range groups { // want ordered-map-range
		s := integrity.New(eng, g, integrity.DefaultConfig())
		s.Start()
		out = append(out, s)
	}
	return out
}

func launch(eng *sim.Engine, g *raid.Group) *integrity.Scrubber {
	s := integrity.New(eng, g, integrity.DefaultConfig())
	s.Start()
	return s
}

// one hop: the range feeds launch, which starts scrubbers.
func startEach(eng *sim.Engine, groups map[string]*raid.Group) []*integrity.Scrubber {
	var out []*integrity.Scrubber
	for _, g := range groups { // want ordered-map-range
		out = append(out, launch(eng, g))
	}
	return out
}

// replaying E19 per map entry is just as nondeterministic: the result
// order follows iteration order.
func replay(seeds map[string]uint64) []integrity.ScenarioResult {
	var out []integrity.ScenarioResult
	for _, seed := range seeds { // want ordered-map-range
		out = append(out, integrity.RunScenario(seed, integrity.DefaultScrubInterval))
	}
	return out
}

// sorted-keys rewrite: the deterministic shape the check pushes toward.
func startSorted(eng *sim.Engine, groups map[string]*raid.Group) []*integrity.Scrubber {
	names := make([]string, 0, len(groups))
	for name := range groups { //simlint:allow ordered-map-range keys are sorted before any scrubber starts
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*integrity.Scrubber, 0, len(names))
	for _, name := range names {
		out = append(out, launch(eng, groups[name]))
	}
	return out
}
