// Clean counterpart: scrubbers and E19 replicas driven from ordered
// collections only — slices in, sorted keys where a map is
// unavoidable, maps used purely for O(1) lookup.
package integritysinkok

import (
	"sort"

	"spiderfs/internal/integrity"
	"spiderfs/internal/raid"
	"spiderfs/internal/sim"
)

// slices are ordered; launching scrubbers from one is fine.
func startAll(eng *sim.Engine, groups []*raid.Group) []*integrity.Scrubber {
	out := make([]*integrity.Scrubber, 0, len(groups))
	for _, g := range groups {
		s := integrity.New(eng, g, integrity.DefaultConfig())
		s.Start()
		out = append(out, s)
	}
	return out
}

// map used as an index, drained through a sorted key slice before any
// scrubber is started.
func startNamed(eng *sim.Engine, byName map[string]*raid.Group) []*integrity.Scrubber {
	names := make([]string, 0, len(byName))
	for name := range byName { //simlint:allow ordered-map-range keys are sorted before any scrubber starts
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*integrity.Scrubber, 0, len(names))
	for _, name := range names {
		s := integrity.New(eng, byName[name], integrity.DefaultConfig())
		s.Start()
		out = append(out, s)
	}
	return out
}

// map lookup (no range) feeding a scenario replay stays silent.
func replayNamed(seeds map[string]uint64, label string) integrity.ScenarioResult {
	return integrity.RunScenario(seeds[label], integrity.DefaultScrubInterval)
}
