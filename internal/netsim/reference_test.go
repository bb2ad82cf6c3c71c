package netsim

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
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
// different capacities, staggered arrivals, one- and two-link paths,
// and 3-5-link paths over the same shared links, where siblings are
// bottlenecked on links the starting or finishing flow does not cross
// (the case the incremental finish rule skips). The live solver
// quantizes completions to whole nanoseconds and advances flows
// lazily, so per-flow times may drift by a few nanoseconds; a
// microsecond is two orders of magnitude above that and far below the
// millisecond-scale transfers.
func TestSolverMatchesReference(t *testing.T) {
	const (
		seeds  = 20
		nFlows = 200
		nLinks = 8
	)
	// shortPath draws the original one- or two-link paths.
	shortPath := func(src *rng.Source) []int {
		path := []int{src.Intn(nLinks)}
		if other := src.Intn(nLinks); other != path[0] && src.Bool(0.5) {
			path = append(path, other)
		}
		return path
	}
	// longPath draws 3-5 distinct links.
	longPath := func(src *rng.Source) []int {
		perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
		k := 3 + src.Intn(3)
		for i := 0; i < k; i++ {
			j := i + src.Intn(nLinks-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		return perm[:k]
	}
	worst := 0.0
	for _, tc := range []struct {
		name string
		path func(*rng.Source) []int
	}{{"short", shortPath}, {"long", longPath}} {
		for seed := uint64(1); seed <= seeds; seed++ {
			src := rng.New(seed)
			caps := make([]float64, nLinks)
			for i := range caps {
				caps[i] = float64(1+src.Intn(4)) * 1e9
			}
			flows := make([]refFlow, nFlows)
			for i := range flows {
				flows[i] = refFlow{
					path:    tc.path(src),
					arrival: sim.Time(src.Int63n(int64(sim.Second))),
					size:    float64(1+src.Intn(64)) * 1e6,
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
				t.Fatalf("%s seed %d: %d flows completed, want %d", tc.name, seed, n.FlowsCompleted, nFlows)
			}
			for i := range flows {
				d := math.Abs(got[i].Seconds() - want[i])
				worst = math.Max(worst, d)
				if d > 1e-6 {
					t.Errorf("%s seed %d flow %d: completes at %v, reference %.9fs", tc.name, seed, i, got[i], want[i])
				}
			}
		}
	}
	t.Logf("worst per-flow completion difference: %.0f ns", worst*1e9)
}

// The solver's allocation cost, pinned absolutely at zero once warm:
// flows come from the network's free list with their path buffers and
// bound completion callbacks, the caller's path is copied (so a path
// literal stays on the caller's stack), completion events are recycled,
// and re-rating a sibling moves its existing event. A Spider II-scale
// StartClientFlow (nil tracer, healthy routers, nil done) adds route
// selection and the in-place path build, and allocates nothing either:
// after one warm-up wave, the same seeded 2,048-flow wave again.
func TestStartFinishAllocationCeiling(t *testing.T) {
	eng, n, links := newChurnNetwork()
	src := rng.New(1)
	perFlow := testing.AllocsPerRun(100, func() {
		for i := 0; i < churnDrain; i++ {
			startChurnFlow(n, links, src)
		}
		eng.Run()
	}) / churnDrain
	if perFlow != 0 {
		t.Errorf("churn allocates %.2f per flow, want 0", perFlow)
	}

	const fanIn = 8
	l := links[0]
	burst := testing.AllocsPerRun(100, func() {
		for i := 0; i < fanIn; i++ {
			n.StartFlow([]*Link{l}, 1e6, nil)
		}
		eng.Run()
	})
	if burst != 0 {
		t.Errorf("fan-in-%d burst allocates %.0f, want 0", fanIn, burst)
	}

	const (
		clients = 18688
		nOSS    = 288
		wave    = 2048
	)
	feng := sim.NewEngine()
	cfg := Spider2Fabric()
	fab := NewFabric(feng, cfg, placementForBench(cfg), nOSS)
	seed, wsrc := rng.New(3), new(rng.Source)
	perSend := testing.AllocsPerRun(2, func() {
		*wsrc = *seed
		for i := 0; i < wave; i++ {
			c := cfg.Torus.CoordOf(wsrc.Intn(clients) % cfg.Torus.Nodes())
			fab.StartClientFlow(c, wsrc.Intn(nOSS), RouteFGR, 32e6, wsrc, nil)
		}
		feng.Run()
	}) / wave
	if perSend != 0 {
		t.Errorf("Spider II StartClientFlow allocates %.4f per send, want 0", perSend)
	}
}

// TestCongestionWaveBytesCeiling holds the bytes the solver allocates
// under congestion once its flow pool is built: three seeded 2,048-flow
// Spider II waves after the first. What remains is registry growth as
// links see more concurrent flows than before, and the flow table, so
// the ceiling pins the 8-byte, pointer-free registry entry; 16-byte
// entries holding a *Flow cost about twice as much.
func TestCongestionWaveBytesCeiling(t *testing.T) {
	const (
		clients = 18688
		nOSS    = 288
		wave    = 2048
		ceiling = 640 << 10
	)
	eng := sim.NewEngine()
	cfg := Spider2Fabric()
	fab := NewFabric(eng, cfg, placementForBench(cfg), nOSS)
	src := rng.New(3)
	runWave := func() {
		for i := 0; i < wave; i++ {
			c := cfg.Torus.CoordOf(src.Intn(clients) % cfg.Torus.Nodes())
			fab.StartClientFlow(c, src.Intn(nOSS), RouteFGR, 32e6, src, nil)
		}
		eng.Run()
	}
	runWave() // builds the flow pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for w := 0; w < 3; w++ {
		runWave()
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got > ceiling {
		t.Fatalf("waves 2-4 allocate %d bytes, want at most %d", got, ceiling)
	}
	t.Logf("waves 2-4 allocate %d bytes", got)
}

// TestCongestionWaveWorkCountsPinned pins the solver's work counts over
// three seeded 2,048-flow Spider II waves: registry entries walked,
// flows re-rated and rates changed, as running totals after each wave.
// They are a function of the flow schedule alone, so a change to the
// solver's work moves them exactly, whatever the host's speed, and a
// change that keeps the model moves no other pin. Reset zeroes them.
func TestCongestionWaveWorkCountsPinned(t *testing.T) {
	const (
		clients = 18688
		nOSS    = 288
		wave    = 2048
	)
	eng := sim.NewEngine()
	cfg := Spider2Fabric()
	fab := NewFabric(eng, cfg, placementForBench(cfg), nOSS)
	net := fab.Net
	src := rng.New(3)
	type counts struct{ events, walked, rerated, changed uint64 }
	want := []counts{
		{4096, 133774, 38258, 14513},
		{8192, 266670, 77054, 29555},
		{12288, 399036, 115188, 44484},
	}
	for w, want := range want {
		for i := 0; i < wave; i++ {
			c := cfg.Torus.CoordOf(src.Intn(clients) % cfg.Torus.Nodes())
			fab.StartClientFlow(c, src.Intn(nOSS), RouteFGR, 32e6, src, nil)
		}
		eng.Run()
		got := counts{net.FlowsStarted + net.FlowsCompleted, net.EntriesWalked, net.FlowsRerated, net.RatesChanged}
		if got != want {
			t.Errorf("after wave %d: %d flow events, %d entries walked, %d flows re-rated, %d rates changed; want %d, %d, %d, %d",
				w+1, got.events, got.walked, got.rerated, got.changed, want.events, want.walked, want.rerated, want.changed)
		}
	}
	if err := net.Reset(); err != nil {
		t.Fatal(err)
	}
	if net.EntriesWalked != 0 || net.FlowsRerated != 0 || net.RatesChanged != 0 {
		t.Errorf("Reset left %d entries walked, %d flows re-rated, %d rates changed", net.EntriesWalked, net.FlowsRerated, net.RatesChanged)
	}
}

// refWalk visits the dimension-ordered route from a to b one unit hop
// at a time (excluding a, including b): all X hops, then Y, then Z,
// each axis the short way round, a tie going the + way.
func refWalk(t topology.Torus, a, b topology.Coord, visit func(topology.Coord)) {
	cur := a
	for _, ax := range []struct {
		pos   *int
		to, n int
	}{{&cur.X, b.X, t.NX}, {&cur.Y, b.Y, t.NY}, {&cur.Z, b.Z, t.NZ}} {
		fwd := (ax.to - *ax.pos + ax.n) % ax.n
		dist, step := fwd, +1
		if fwd > ax.n-fwd {
			dist, step = ax.n-fwd, -1
		}
		for ; dist > 0; dist-- {
			*ax.pos = (*ax.pos + step + ax.n) % ax.n
			visit(cur)
		}
	}
}

// refStepDir returns the link direction (0..5: +x,-x,+y,-y,+z,-z, the
// per-node order NewFabric builds) of the unit hop cur->next.
func refStepDir(t topology.Torus, cur, next topology.Coord) int {
	switch {
	case next.X != cur.X:
		if (cur.X+1)%t.NX == next.X {
			return dirXPlus
		}
		return dirXMinus
	case next.Y != cur.Y:
		if (cur.Y+1)%t.NY == next.Y {
			return dirYPlus
		}
		return dirYMinus
	default:
		if (cur.Z+1)%t.NZ == next.Z {
			return dirZPlus
		}
		return dirZMinus
	}
}

// refGeminiPath appends the hop-by-hop oracle's route from a to b to
// dst: each hop's link is looked up by the node it leaves and the
// direction its coordinates change in.
func refGeminiPath(dst []*Link, f *Fabric, a, b topology.Coord) []*Link {
	t := f.Cfg.Torus
	cur := a
	refWalk(t, a, b, func(next topology.Coord) {
		dst = append(dst, &f.torus[linksPerNode*t.Index(cur)+refStepDir(t, cur, next)])
		cur = next
	})
	return dst
}

// geminiPath must emit, link for link, the route the hop-by-hop oracle
// walks: from every Titan torus node to every I/O module of the
// Spider II placement (every route a Spider II flow can take), and
// between every pair of MiniTitan nodes. Both tori have even axes, so
// the half-way tie is crossed on every one of them.
func TestGeminiPathMatchesReference(t *testing.T) {
	mini, miniPl := topology.MiniTitan()
	miniNodes := make([]topology.Coord, mini.Nodes())
	for i := range miniNodes {
		miniNodes[i] = mini.CoordOf(i)
	}
	titan := Spider2Fabric()
	titanPl := placementForBench(titan)
	var modules []topology.Coord
	for _, m := range titanPl.Modules {
		modules = append(modules, m.Coord)
	}
	if len(modules) != 110 {
		t.Fatalf("Spider II placement has %d modules, want 110", len(modules))
	}
	for _, tc := range []struct {
		name    string
		f       *Fabric
		targets []topology.Coord
	}{
		{"titan", NewFabric(sim.NewEngine(), titan, titanPl, 1), modules},
		{"mini", NewFabric(sim.NewEngine(), FabricConfig{Torus: mini}, miniPl, 1), miniNodes},
	} {
		tor := tc.f.Cfg.Torus
		var got, want []*Link
		for i := 0; i < tor.Nodes(); i++ {
			a := tor.CoordOf(i)
			for _, b := range tc.targets {
				got = tc.f.geminiPath(got[:0], a, b)
				want = refGeminiPath(want[:0], tc.f, a, b)
				if !slices.Equal(got, want) {
					t.Fatalf("%s %v -> %v: geminiPath %v, reference %v", tc.name, a, b, linkNames(tc.f.Net, got), linkNames(tc.f.Net, want))
				}
			}
		}
	}
}

func linkNames(n *Network, path []*Link) []string {
	names := make([]string, len(path))
	for i, l := range path {
		names[i] = n.LinkName(l)
	}
	return names
}
