// Sabotage fixture: the scrub plane is a scheduling sink — a
// scrubber's scan order and an E19 replica's repair sequence feed the
// campaign and sweep fingerprints, so launching scrubbers or replaying
// scenarios from a map range bakes Go's random iteration order into
// the artifacts. Flagged directly and one call away, like the trace,
// span, and sweep sinks.
package integritysink

import (
	"sort"

	"spiderfs/internal/experiment"
	"spiderfs/internal/raid"
	"spiderfs/internal/sim"
)

var cfg = raid.ScrubConfig{BatchStripes: 128, BatchPause: 500 * sim.Millisecond, PassInterval: experiment.DefaultScrubInterval}

// direct: the range and the scrubber launch live in the same function.
func startAll(groups map[string]*raid.Group) []*raid.Scrubber {
	var out []*raid.Scrubber
	for _, g := range groups { // want ordered-map-range
		s := raid.NewScrubber(g, cfg)
		s.Start()
		out = append(out, s)
	}
	return out
}

func launch(g *raid.Group) *raid.Scrubber {
	s := raid.NewScrubber(g, cfg)
	s.Start()
	return s
}

// one hop: the range feeds launch, which starts scrubbers.
func startEach(groups map[string]*raid.Group) []*raid.Scrubber {
	var out []*raid.Scrubber
	for _, g := range groups { // want ordered-map-range
		out = append(out, launch(g))
	}
	return out
}

// replaying E19 per map entry is just as nondeterministic: the result
// order follows iteration order.
func replay(seeds map[string]uint64) []experiment.ScenarioResult {
	var out []experiment.ScenarioResult
	for _, seed := range seeds { // want ordered-map-range
		out = append(out, experiment.RunScenario(seed, experiment.DefaultScrubInterval))
	}
	return out
}

// sorted-keys rewrite: the deterministic shape the check pushes toward.
func startSorted(groups map[string]*raid.Group) []*raid.Scrubber {
	names := make([]string, 0, len(groups))
	for name := range groups { //simlint:allow ordered-map-range keys are sorted before any scrubber starts
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*raid.Scrubber, 0, len(names))
	for _, name := range names {
		out = append(out, launch(groups[name]))
	}
	return out
}
