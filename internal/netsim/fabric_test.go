package netsim

import (
	"fmt"
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

// smallFabric builds a reduced machine for unit tests: 5x4x4 torus,
// 16 modules, 4 groups (16 leaves), 32 OSSes.
func smallFabric(eng *sim.Engine) *Fabric {
	cfg := Spider2Fabric()
	cfg.Torus = topology.Torus{NX: 5, NY: 4, NZ: 4}
	grid := topology.CabinetGrid{Cols: 5, Rows: 2}
	pl := topology.PlaceRouters(grid, cfg.Torus, 16, 4)
	return NewFabric(eng, cfg, pl, 32)
}

func TestFabricConstruction(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	if f.NumRouters() != 64 {
		t.Fatalf("routers = %d, want 64", f.NumRouters())
	}
	if f.nLeaves != 16 {
		t.Fatalf("leaves = %d, want 16", f.nLeaves)
	}
	// OSSes round-robin across leaves.
	if f.OSSLeaf(0) != 0 || f.OSSLeaf(16) != 0 || f.OSSLeaf(17) != 1 {
		t.Fatalf("oss leaf mapping: %d %d %d", f.OSSLeaf(0), f.OSSLeaf(16), f.OSSLeaf(17))
	}
}

func TestRouterSwitchMapping(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	// The 4 routers of one module go to the 4 switches of its group.
	m := f.Placement.Modules[0]
	seen := map[int]bool{}
	for _, rid := range m.RouterIDs {
		sw := f.routerSwitch(rid)
		if sw/topology.SwitchesPerGroup != m.Group {
			t.Fatalf("router %d on switch %d outside group %d", rid, sw, m.Group)
		}
		if seen[sw] {
			t.Fatalf("two routers of module on same switch %d", sw)
		}
		seen[sw] = true
	}
}

func TestFGRPathAvoidsCore(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	src := rng.New(1)
	for oss := 0; oss < 32; oss++ {
		path := f.ClientPath(topology.Coord{X: 1, Y: 1, Z: 1}, oss, RouteFGR, src)
		for _, l := range path {
			for _, cu := range f.coreUp {
				if l == cu {
					t.Fatalf("FGR path to oss %d crossed core", oss)
				}
			}
		}
	}
}

func TestNaivePathsSometimesCrossCore(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	src := rng.New(2)
	crossings := 0
	for i := 0; i < 200; i++ {
		path := f.ClientPath(topology.Coord{X: 1, Y: 1, Z: 1}, i%32, RouteNaive, src)
		for _, l := range path {
			for _, cu := range f.coreUp {
				if l == cu {
					crossings++
				}
			}
		}
	}
	// With 16 leaves, a random router matches the destination leaf ~1/16
	// of the time; expect most paths to cross.
	if crossings < 150 {
		t.Fatalf("naive crossings = %d/200, expected most to cross core", crossings)
	}
}

func TestFGRPathShorterOnAverage(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	src := rng.New(3)
	var fgrLen, naiveLen int
	n := 0
	for x := 0; x < 5; x++ {
		for z := 0; z < 4; z++ {
			c := topology.Coord{X: x, Y: 2, Z: z}
			for oss := 0; oss < 8; oss++ {
				fgrLen += len(f.ClientPath(c, oss, RouteFGR, src))
				naiveLen += len(f.ClientPath(c, oss, RouteNaive, src))
				n++
			}
		}
	}
	if fgrLen >= naiveLen {
		t.Fatalf("FGR mean path %f not shorter than naive %f",
			float64(fgrLen)/float64(n), float64(naiveLen)/float64(n))
	}
}

func TestGeminiPathFollowsTorusRoute(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	a := topology.Coord{X: 0, Y: 0, Z: 0}
	b := topology.Coord{X: 2, Y: 1, Z: 3}
	links := f.geminiPath(nil, a, b)
	want := f.Cfg.Torus.Distance(a, b)
	if len(links) != want {
		t.Fatalf("gemini path %d links, want %d", len(links), want)
	}
	// No duplicate links on a dimension-ordered path.
	seen := map[*Link]bool{}
	for _, l := range links {
		if seen[l] {
			t.Fatal("duplicate link in path")
		}
		seen[l] = true
	}
}

// stepDir must agree with the per-node link ordering for every unit hop,
// including wraparound hops in both directions.
func TestStepDirCoversAllHops(t *testing.T) {
	tor := topology.Torus{NX: 5, NY: 3, NZ: 4}
	type hop struct {
		d       topology.Coord
		wantDir int
	}
	at := func(c topology.Coord) topology.Coord {
		return topology.Coord{X: (c.X + tor.NX) % tor.NX, Y: (c.Y + tor.NY) % tor.NY, Z: (c.Z + tor.NZ) % tor.NZ}
	}
	for i := 0; i < tor.Nodes(); i++ {
		cur := tor.CoordOf(i)
		for _, h := range []hop{
			{topology.Coord{X: 1}, dirXPlus}, {topology.Coord{X: -1}, dirXMinus},
			{topology.Coord{Y: 1}, dirYPlus}, {topology.Coord{Y: -1}, dirYMinus},
			{topology.Coord{Z: 1}, dirZPlus}, {topology.Coord{Z: -1}, dirZMinus},
		} {
			next := at(topology.Coord{X: cur.X + h.d.X, Y: cur.Y + h.d.Y, Z: cur.Z + h.d.Z})
			if got := stepDir(tor, cur, next); got != h.wantDir {
				t.Fatalf("stepDir(%v -> %v) = %d, want %d", cur, next, got, h.wantDir)
			}
		}
	}
}

func TestEndToEndFlowThroughFabric(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	src := rng.New(4)
	done := 0
	for i := 0; i < 10; i++ {
		c := f.Cfg.Torus.CoordOf(src.Intn(f.Cfg.Torus.Nodes()))
		path := f.ClientPath(c, i%32, RouteFGR, src)
		f.Net.StartFlow(path, 100e6, func() { done++ })
	}
	eng.Run()
	if done != 10 {
		t.Fatalf("completed = %d", done)
	}
	rep := f.Congestion(eng.Now())
	if rep.MaxUtilization <= 0 {
		t.Fatal("no utilization recorded")
	}
	if rep.CoreBytes != 0 {
		t.Fatalf("FGR traffic crossed core: %g bytes", rep.CoreBytes)
	}
}

func TestFGRBeatsNaiveThroughput(t *testing.T) {
	// The E4 experiment in miniature: many clients stream to all OSSes;
	// FGR should deliver the data sooner (less congestion).
	run := func(mode RouteMode) sim.Time {
		eng := sim.NewEngine()
		f := smallFabric(eng)
		src := rng.New(5)
		nClients := 40
		for i := 0; i < nClients; i++ {
			c := f.Cfg.Torus.CoordOf((i * 7) % f.Cfg.Torus.Nodes())
			oss := i % 32
			f.Net.StartFlow(f.ClientPath(c, oss, mode, src), 1e9, nil)
		}
		eng.Run()
		return eng.Now()
	}
	fgr := run(RouteFGR)
	naive := run(RouteNaive)
	if fgr >= naive {
		t.Fatalf("FGR (%v) not faster than naive (%v)", fgr, naive)
	}
}

// TestSpider2LinkNames checks that every link of the Spider II fabric
// renders the name NewFabric used to format eagerly, in creation order.
func TestSpider2LinkNames(t *testing.T) {
	cfg := Spider2Fabric()
	pl := placementForBench(cfg)
	const nOSS = 288
	f := NewFabric(sim.NewEngine(), cfg, pl, nOSS)
	var want []string
	for i := 0; i < cfg.Torus.Nodes(); i++ {
		c := cfg.Torus.CoordOf(i)
		for _, tag := range []string{"+x", "-x", "+y", "-y", "+z", "-z"} {
			want = append(want, fmt.Sprintf("gem%v%s", c, tag))
		}
		want = append(want, fmt.Sprintf("inj%v", c))
	}
	for _, m := range pl.Modules {
		for k, rid := range m.RouterIDs {
			sw := m.Group*topology.SwitchesPerGroup + k
			want = append(want, fmt.Sprintf("rtr%d-fwd", rid), fmt.Sprintf("rtr%d-sw%d", rid, sw))
		}
	}
	leaves := pl.Groups * topology.SwitchesPerGroup
	for s := 0; s < leaves; s++ {
		want = append(want, fmt.Sprintf("leaf%d-core", s), fmt.Sprintf("core-leaf%d", s))
	}
	for i := 0; i < nOSS; i++ {
		want = append(want, fmt.Sprintf("leaf%d-oss%d", i%leaves, i))
	}
	links := f.Net.Links()
	if len(links) != len(want) {
		t.Fatalf("%d links, want %d", len(links), len(want))
	}
	for i, l := range links {
		if l.Name() != want[i] {
			t.Fatalf("link %d renders %q, want %q", i, l.Name(), want[i])
		}
	}
	if got := f.Net.NewLink("custom", 1e9, 0).Name(); got != "custom" {
		t.Fatalf("NewLink name renders %q", got)
	}
}
