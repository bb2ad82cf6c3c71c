package netsim

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

// refFlow is one transfer of the reference workload: it arrives at
// arrival, carries size bytes, and crosses the links indexed by path.
type refFlow struct {
	arrival sim.Time
	size    float64
	path    []int
}

// referenceCompletions is a from-scratch fluid solver for the same
// egalitarian fair-share model as Network, kept deliberately naive as an
// independent oracle. At every arrival or completion it recomputes each
// active flow's rate as the minimum over its links of cap/flows, with no
// incremental bookkeeping, and advances every flow to the next instant
// one of them finishes or a new one arrives. It returns each flow's
// completion time in seconds.
func referenceCompletions(caps []float64, flows []refFlow) []float64 {
	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(flows[a].arrival, flows[b].arrival) })

	done := make([]float64, len(flows))
	rem := make([]float64, len(flows))
	rate := make([]float64, len(flows))
	var active []int
	now, next := 0.0, 0
	for next < len(order) || len(active) > 0 {
		onLink := make([]int, len(caps))
		for _, i := range active {
			for _, l := range flows[i].path {
				onLink[l]++
			}
		}
		until := math.Inf(1)
		for _, i := range active {
			rate[i] = math.Inf(1)
			for _, l := range flows[i].path {
				rate[i] = math.Min(rate[i], caps[l]/float64(onLink[l]))
			}
			until = math.Min(until, now+rem[i]/rate[i])
		}
		if next < len(order) {
			until = math.Min(until, flows[order[next]].arrival.Seconds())
		}
		for _, i := range active {
			rem[i] -= rate[i] * (until - now)
		}
		now = until
		// A flow within a picosecond of draining completes now.
		active = slices.DeleteFunc(active, func(i int) bool {
			if rem[i] > rate[i]*1e-12 {
				return false
			}
			done[i] = now
			return true
		})
		for next < len(order) && flows[order[next]].arrival.Seconds() <= now {
			i := order[next]
			rem[i] = flows[i].size
			active = append(active, i)
			next++
		}
	}
	return done
}

// The live solver must agree with the reference on every flow's
// completion time, not just on when the last one finishes: links of
// different capacities, staggered arrivals, one- and two-link paths.
// The live solver quantizes completions to whole nanoseconds and
// advances flows lazily, so per-flow times may drift by a few
// nanoseconds; a microsecond is two orders of magnitude above that and
// far below the millisecond-scale transfers.
func TestSolverMatchesReference(t *testing.T) {
	const (
		seeds  = 20
		nFlows = 200
		nLinks = 8
	)
	worst := 0.0
	for seed := uint64(1); seed <= seeds; seed++ {
		src := rng.New(seed)
		caps := make([]float64, nLinks)
		for i := range caps {
			caps[i] = float64(1+src.Intn(4)) * 1e9
		}
		flows := make([]refFlow, nFlows)
		for i := range flows {
			path := []int{src.Intn(nLinks)}
			if other := src.Intn(nLinks); other != path[0] && src.Bool(0.5) {
				path = append(path, other)
			}
			flows[i] = refFlow{
				arrival: sim.Time(src.Int63n(int64(sim.Second))),
				size:    float64(1+src.Intn(64)) * 1e6,
				path:    path,
			}
		}
		want := referenceCompletions(caps, flows)

		eng := sim.NewEngine()
		n := NewNetwork(eng)
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = n.NewLink("l", caps[i], 0)
		}
		got := make([]sim.Time, nFlows)
		for i, fl := range flows {
			path := make([]*Link, len(fl.path))
			for k, l := range fl.path {
				path[k] = links[l]
			}
			eng.At(fl.arrival, func() {
				n.StartFlow(path, fl.size, func() { got[i] = eng.Now() })
			})
		}
		eng.Run()

		if n.FlowsCompleted != nFlows {
			t.Fatalf("seed %d: %d flows completed, want %d", seed, n.FlowsCompleted, nFlows)
		}
		for i := range flows {
			d := math.Abs(got[i].Seconds() - want[i])
			worst = math.Max(worst, d)
			if d > 1e-6 {
				t.Errorf("seed %d flow %d: completes at %v, reference %.9fs", seed, i, got[i], want[i])
			}
		}
	}
	t.Logf("worst per-flow completion difference: %.0f ns", worst*1e9)
}

// The solver's allocation cost, pinned absolutely: per flow exactly the
// Flow, the caller's path slice, one completion event and its closure.
// Re-rating a sibling moves its existing event instead of allocating.
func TestStartFinishAllocationCeiling(t *testing.T) {
	eng, n, links := newChurnNetwork()
	src := rng.New(1)
	perFlow := testing.AllocsPerRun(100, func() {
		for i := 0; i < churnDrain; i++ {
			startChurnFlow(n, links, src)
		}
		eng.Run()
	}) / churnDrain
	if perFlow > 4 {
		t.Errorf("churn allocates %.2f per flow, want <= 4", perFlow)
	}

	const fanIn = 8
	l := links[0]
	burst := testing.AllocsPerRun(100, func() {
		for i := 0; i < fanIn; i++ {
			n.StartFlow([]*Link{l}, 1e6, nil)
		}
		eng.Run()
	})
	if burst > 4*fanIn {
		t.Errorf("fan-in-%d burst allocates %.0f, want <= %d", fanIn, burst, 4*fanIn)
	}
}
