package netbench

import (
	"encoding/json"
	"testing"

	"spiderfs/internal/netsim"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

// The frozen baseline must still be a faithful copy of the fluid model:
// on an identical workload, both solvers complete the same flows and
// the drain finishes at (floating-point-near) the same instant. If the
// baseline drifted, the benchmark comparison would be meaningless.
func TestBaselineMatchesOrderedSolver(t *testing.T) {
	const flows = 200
	type pick struct{ a, b int }
	src := rng.New(13)
	picks := make([]pick, flows)
	for i := range picks {
		picks[i] = pick{src.Intn(churnLinks), src.Intn(churnLinks)}
	}

	ordEng := sim.NewEngine()
	ordNet := netsim.NewNetwork(ordEng)
	ordLinks := make([]*netsim.Link, churnLinks)
	for i := range ordLinks {
		ordLinks[i] = ordNet.NewLink("l", 1e9, 0)
	}
	for _, p := range picks {
		path := []*netsim.Link{ordLinks[p.a], ordLinks[p.b]}
		if p.a == p.b {
			path = path[:1]
		}
		ordNet.StartFlow(path, 1e6, nil)
	}
	ordEng.Run()

	baseEng := sim.NewEngine()
	baseNet := newMapNetwork(baseEng)
	baseLinks := make([]*mapLink, churnLinks)
	for i := range baseLinks {
		baseLinks[i] = baseNet.newLink(1e9, 0)
	}
	for _, p := range picks {
		path := []*mapLink{baseLinks[p.a], baseLinks[p.b]}
		if p.a == p.b {
			path = path[:1]
		}
		baseNet.start(path, 1e6, nil)
	}
	baseEng.Run()

	if ordNet.FlowsCompleted != flows || baseNet.flowsCompleted != flows {
		t.Fatalf("completions: ordered %d, baseline %d, want %d",
			ordNet.FlowsCompleted, baseNet.flowsCompleted, flows)
	}
	// The two implementations advance flows at different instants, so
	// their remaining-bytes arithmetic may differ in the last float bits;
	// allow a microsecond of drift on a multi-second drain.
	d := ordEng.Now() - baseEng.Now()
	if d < 0 {
		d = -d
	}
	if d > sim.Microsecond {
		t.Fatalf("drain ends diverge: ordered %v, baseline %v", ordEng.Now(), baseEng.Now())
	}
}

// The refactor's headline claim, checked cheaply with AllocsPerRun: a
// fan-in burst (8 flows sharing one link) followed by a drain must
// allocate at least 2x less under the ordered registries than under the
// map baseline. The baseline pays an affected-set map per start/finish
// and re-allocates every sibling's completion event on each arrival;
// the ordered path allocates only the flow, its path, and one event.
func TestOrderedHalvesStartFinishAllocations(t *testing.T) {
	const fanIn = 8
	ordEng := sim.NewEngine()
	ordNet := netsim.NewNetwork(ordEng)
	ordLink := ordNet.NewLink("l", 1e9, 0)
	ordered := testing.AllocsPerRun(100, func() {
		for i := 0; i < fanIn; i++ {
			ordNet.StartFlow([]*netsim.Link{ordLink}, 1e6, nil)
		}
		ordEng.Run()
	})

	baseEng := sim.NewEngine()
	baseNet := newMapNetwork(baseEng)
	baseLink := baseNet.newLink(1e9, 0)
	baseline := testing.AllocsPerRun(100, func() {
		for i := 0; i < fanIn; i++ {
			baseNet.start([]*mapLink{baseLink}, 1e6, nil)
		}
		baseEng.Run()
	})

	if ordered*2 > baseline {
		t.Fatalf("ordered start/finish allocates %.1f/run vs baseline %.1f/run, want >=2x fewer",
			ordered, baseline)
	}
}

// A quick (non-full) suite run must produce both churn results and the
// headline ratios; this keeps the artifact generator exercised in CI.
func TestSuiteQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	s := Run(false)
	if len(s.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(s.Results))
	}
	if s.StartFinishAllocRatio < 2 {
		t.Fatalf("alloc ratio %.2f, want >= 2 (acceptance floor)", s.StartFinishAllocRatio)
	}
	if s.Results[0].Name != "start_finish/map_baseline" || s.Results[1].Name != "start_finish/ordered" {
		t.Fatalf("unexpected result names: %q, %q", s.Results[0].Name, s.Results[1].Name)
	}
	out, err := json.Marshal(s)
	if err != nil || len(out) == 0 {
		t.Fatalf("JSON render failed: %v", err)
	}
	if len(s.Render()) == 0 {
		t.Fatal("empty table render")
	}
}
