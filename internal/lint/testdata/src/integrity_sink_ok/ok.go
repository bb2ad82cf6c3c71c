// Clean counterpart: scrubbers and E19 replicas driven from ordered
// collections only — slices in, sorted keys where a map is
// unavoidable, maps used purely for O(1) lookup.
package integritysinkok

import (
	"sort"

	"spiderfs/internal/experiment"
	"spiderfs/internal/raid"
	"spiderfs/internal/sim"
)

var cfg = raid.ScrubConfig{BatchStripes: 128, BatchPause: 500 * sim.Millisecond, PassInterval: experiment.DefaultScrubInterval}

// slices are ordered; launching scrubbers from one is fine.
func startAll(groups []*raid.Group) []*raid.Scrubber {
	out := make([]*raid.Scrubber, 0, len(groups))
	for _, g := range groups {
		s := raid.NewScrubber(g, cfg)
		s.Start()
		out = append(out, s)
	}
	return out
}

// map used as an index, drained through a sorted key slice before any
// scrubber is started.
func startNamed(byName map[string]*raid.Group) []*raid.Scrubber {
	names := make([]string, 0, len(byName))
	for name := range byName { //simlint:allow ordered-map-range keys are sorted before any scrubber starts
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*raid.Scrubber, 0, len(names))
	for _, name := range names {
		s := raid.NewScrubber(byName[name], cfg)
		s.Start()
		out = append(out, s)
	}
	return out
}

// map lookup (no range) feeding a scenario replay stays silent.
func replayNamed(seeds map[string]uint64, label string) experiment.ScenarioResult {
	return experiment.RunScenario(seeds[label], experiment.DefaultScrubInterval)
}

// Stands in for the callers a fixture package does not load.
var _ = []any{startAll, startNamed, replayNamed}
