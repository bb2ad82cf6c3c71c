package netsim

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

// smallFabric builds a reduced machine for unit tests: the MiniTitan
// torus, 16 modules, 4 groups (16 leaves), 32 OSSes.
func smallFabric(eng *sim.Engine) *Fabric {
	torus, pl := topology.MiniTitan()
	return NewFabric(eng, FabricConfig{Torus: torus}, pl, 32)
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
	if f.ossLeaf[0] != 0 || f.ossLeaf[16] != 0 || f.ossLeaf[17] != 1 {
		t.Fatalf("oss leaf mapping: %d %d %d", f.ossLeaf[0], f.ossLeaf[16], f.ossLeaf[17])
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

// clientPath is the link path a healthy fabric gives a send from client
// c to OSS oss: the router selectRouter picks, then pathVia through it.
func clientPath(f *Fabric, c topology.Coord, oss int, mode RouteMode, src *rng.Source) []*Link {
	return f.pathVia(nil, c, oss, f.selectRouter(c, f.ossLeaf[oss], mode, src, nil))
}

func TestFGRPathAvoidsCore(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	src := rng.New(1)
	for oss := 0; oss < 32; oss++ {
		path := clientPath(f, topology.Coord{X: 1, Y: 1, Z: 1}, oss, RouteFGR, src)
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
		path := clientPath(f, topology.Coord{X: 1, Y: 1, Z: 1}, i%32, RouteNaive, src)
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
				fgrLen += len(clientPath(f, c, oss, RouteFGR, src))
				naiveLen += len(clientPath(f, c, oss, RouteNaive, src))
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

func TestEndToEndFlowThroughFabric(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	src := rng.New(4)
	done := 0
	for i := 0; i < 10; i++ {
		c := f.Cfg.Torus.CoordOf(src.Intn(f.Cfg.Torus.Nodes()))
		path := clientPath(f, c, i%32, RouteFGR, src)
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
			f.Net.StartFlow(clientPath(f, c, oss, mode, src), 1e9, nil)
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
		if got := f.Net.LinkName(l); got != want[i] {
			t.Fatalf("link %d renders %q, want %q", i, got, want[i])
		}
	}
	if got := f.Net.LinkName(f.Net.NewLink("custom", 1e9, 0)); got != "custom" {
		t.Fatalf("NewLink name renders %q", got)
	}
}

// TestSpider2FabricBuildAllocations pins the slab build: the 68,440
// links of a Spider II fabric come from one presized chunk, so the
// whole build costs a few dozen allocations (one per per-kind index
// slice and per placement group), not one per link.
func TestSpider2FabricBuildAllocations(t *testing.T) {
	cfg := Spider2Fabric()
	pl := placementForBench(cfg)
	eng := sim.NewEngine()
	allocs := testing.AllocsPerRun(2, func() { NewFabric(eng, cfg, pl, 288) })
	if allocs > 64 {
		t.Fatalf("NewFabric makes %v allocations, want at most 64", allocs)
	}
}

// TestLinkRecordSize pins a Link at one 64-byte cache line, and a
// Spider II fabric's slab at a cache-line boundary, so no link's hot
// fields straddle two lines.
func TestLinkRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(Link{}); size != 64 {
		t.Fatalf("Link is %d bytes, want 64", size)
	}
	cfg := Spider2Fabric()
	f := NewFabric(sim.NewEngine(), cfg, placementForBench(cfg), 288)
	if at := uintptr(unsafe.Pointer(&f.torus[0])); at%64 != 0 {
		t.Fatalf("first torus link at %#x, not 64-byte aligned", at)
	}
}

// TestSpider2FabricBuildBytes holds one Spider II build to 5.5 MB: the
// 68,440 one-line links (4.4 MB) and the fabric's small tables, with
// no per-node route table and no per-link name.
func TestSpider2FabricBuildBytes(t *testing.T) {
	cfg := Spider2Fabric()
	pl := placementForBench(cfg)
	eng := sim.NewEngine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fabricSink = NewFabric(eng, cfg, pl, 288)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 5.5e6 {
		t.Fatalf("NewFabric allocates %d bytes, want at most 5.5 MB", got)
	}
}

// TestPlainNetworkLinksOutliveChunks checks that links made one at a
// time on a plain network, across several slab chunks, stay distinct
// and keep their names and capacities.
func TestPlainNetworkLinksOutliveChunks(t *testing.T) {
	n := NewNetwork(sim.NewEngine())
	const k = 3*linkChunk + 5
	for i := 0; i < k; i++ {
		n.NewLink(fmt.Sprint("l", i), float64(i+1), 0)
	}
	seen := map[*Link]bool{}
	for i, l := range n.Links() {
		if seen[l] || n.LinkName(l) != fmt.Sprint("l", i) || l.Cap != float64(i+1) {
			t.Fatalf("link %d: %q cap %v (repeat %v)", i, n.LinkName(l), l.Cap, seen[l])
		}
		seen[l] = true
	}
	if len(n.Links()) != k {
		t.Fatalf("%d links, want %d", len(n.Links()), k)
	}
}
