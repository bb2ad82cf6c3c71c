package center

import (
	"fmt"
	"strings"
	"testing"

	"spiderfs/internal/lustre"
	"spiderfs/internal/netsim"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/stats"
	"spiderfs/internal/topology"
	"spiderfs/internal/workload"
)

func TestNewSmallCenter(t *testing.T) {
	c := New(Config{Small: true, Namespaces: 2, UseFabric: true, Seed: 1})
	if len(c.Namespaces) != 2 {
		t.Fatalf("namespaces = %d", len(c.Namespaces))
	}
	if c.Fabric == nil {
		t.Fatal("fabric missing")
	}
	if c.ossBase[1] != len(c.Namespaces[0].OSSes) {
		t.Fatalf("oss base = %v", c.ossBase)
	}
}

func TestCenterIORThroughFabric(t *testing.T) {
	c := New(Config{Small: true, Namespaces: 1, UseFabric: true, RouteMode: netsim.RouteFGR, Seed: 2})
	res := c.RunIOR(0, workload.IORConfig{
		Clients:      8,
		TransferSize: 1 << 20,
		StoneWall:    500 * sim.Millisecond,
	})
	if res.BytesMoved <= 0 {
		t.Fatal("no data moved through fabric")
	}
	rep := c.Fabric.Congestion(c.Eng.Now())
	if rep.MaxUtilization <= 0 {
		t.Fatal("fabric shows no utilization")
	}
}

func TestFGRReducesCongestionAtCenterScale(t *testing.T) {
	// When storage is the binding constraint both disciplines deliver
	// the same aggregate; FGR's value (Lesson 14) is eliminating core
	// crossings and network hot spots — assert those directly, with
	// throughput no worse.
	run := func(mode netsim.RouteMode) (float64, netsim.CongestionReport) {
		c := New(Config{Small: true, Namespaces: 1, UseFabric: true, RouteMode: mode, Seed: 3})
		res := c.RunIOR(0, workload.IORConfig{
			Clients:      16,
			TransferSize: 1 << 20,
			StoneWall:    500 * sim.Millisecond,
		})
		return res.AggregateBps, c.Fabric.Congestion(c.Eng.Now())
	}
	fgr, fgrRep := run(netsim.RouteFGR)
	naive, naiveRep := run(netsim.RouteNaive)
	if fgrRep.CoreBytes != 0 {
		t.Fatalf("FGR pushed %.2e bytes through the core", fgrRep.CoreBytes)
	}
	if naiveRep.CoreBytes == 0 {
		t.Fatal("naive routing should cross the core")
	}
	if fgrRep.MeanGeminiUtil > naiveRep.MeanGeminiUtil {
		t.Fatalf("FGR gemini util %.4f should not exceed naive %.4f",
			fgrRep.MeanGeminiUtil, naiveRep.MeanGeminiUtil)
	}
	if fgr < 0.95*naive {
		t.Fatalf("FGR throughput (%.0f) fell below naive (%.0f)", fgr, naive)
	}
}

func TestDataCentricWorkflowBeatsExclusive(t *testing.T) {
	// Same storage hardware: one shared namespace vs two exclusive ones
	// with a 10 GB/s DTN between them.
	mkFS := func(seed uint64) *lustre.FS {
		eng := sim.NewEngine()
		return lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	}
	shared := mkFS(4)
	dc := DataCentricWorkflow(shared, 256<<20, 4, 4)

	eng := sim.NewEngine()
	simFS := lustre.Build(eng, lustre.TestNamespace(), rng.New(5))
	p := lustre.TestNamespace()
	p.Name = "viz"
	vizFS := lustre.Build(eng, p, rng.New(6))
	ex := ExclusiveWorkflow(simFS, vizFS, 256<<20, 4, 4, 10e9)

	if dc.BytesMoved != 0 {
		t.Fatalf("data-centric moved %d bytes between systems", dc.BytesMoved)
	}
	if ex.BytesMoved != 256<<20 {
		t.Fatalf("exclusive moved %d", ex.BytesMoved)
	}
	if ex.TransferTime <= 0 {
		t.Fatal("exclusive workflow should pay transfer time")
	}
	if dc.Total >= ex.Total {
		t.Fatalf("data-centric total (%v) should beat exclusive (%v)", dc.Total, ex.Total)
	}
}

func TestMetadataStormNamespaceSplit(t *testing.T) {
	// E11: identical storage, one vs two MDSes. Two namespaces should
	// raise aggregate metadata throughput substantially.
	run := func(n int) MetadataLoadResult {
		eng := sim.NewEngine()
		var namespaces []*lustre.FS
		for i := 0; i < n; i++ {
			p := lustre.TestNamespace()
			p.Name = "ns" + string(rune('a'+i))
			namespaces = append(namespaces, lustre.Build(eng, p, rng.New(uint64(10+i))))
		}
		return MetadataStorm(namespaces, 3000, 64)
	}
	one := run(1)
	two := run(2)
	if one.Utilization < 0.85 {
		t.Fatalf("single MDS should saturate under the storm (util %.2f)", one.Utilization)
	}
	gain := two.OpsPerSec / one.OpsPerSec
	if gain < 1.6 {
		t.Fatalf("two namespaces gained only %.2fx metadata throughput", gain)
	}
	if two.MeanWait >= one.MeanWait {
		t.Fatalf("wait did not improve: %v -> %v", one.MeanWait, two.MeanWait)
	}
}

func TestControllerUpgradeRaisesThroughput(t *testing.T) {
	// E14 in miniature: same shape, upgraded controller, optimally
	// placed clients -> clearly higher aggregate.
	run := func(upgraded bool) float64 {
		c := New(Config{Small: true, Namespaces: 1, Upgraded: upgraded, Seed: 30})
		res := c.RunIOR(0, workload.IORConfig{
			Clients:      32,
			TransferSize: 1 << 20,
			StoneWall:    sim.Second,
		})
		return res.AggregateBps
	}
	before := run(false)
	after := run(true)
	ratio := after / before
	if ratio < 1.2 {
		t.Fatalf("upgrade gained only %.2fx (%.1f -> %.1f GB/s)", ratio, before/1e9, after/1e9)
	}
}

func TestRenderArchitecture(t *testing.T) {
	c := New(Config{Small: true, Namespaces: 2, Seed: 5})
	out := c.RenderArchitecture()
	for _, want := range []string{"Gemini 3D torus", "LNET routers", "Spider namespace", "RAID-6 8+2", "MDT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("architecture rendering missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "Spider namespace") != 2 {
		t.Fatal("should render both namespaces")
	}
}

// The end-to-end value behind A8: two identical checkpointing apps on
// one namespace finish their dumps faster when staggered by half their
// period than when they burst in phase.
func TestStaggeredCheckpointsBeatAligned(t *testing.T) {
	run := func(offset sim.Time) float64 {
		eng := sim.NewEngine()
		p := lustre.TestNamespace()
		// Proportional miniature controller (as in the Small center), so
		// two simultaneous dumps genuinely contend.
		p.CtrlCfg.Bps = 2.5e9
		p.CtrlCfg.Slots = 8
		fs := lustre.Build(eng, p, rng.New(321))
		var durations []float64
		app := func(id int, start sim.Time) {
			client := lustre.NewClient(id, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
			period := 2 * sim.Second
			fs.Create(fmt.Sprintf("app%d/ckpt", id), 4, func(file *lustre.File) {
				var dump func(n int)
				dump = func(n int) {
					if n == 0 {
						return
					}
					t0 := eng.Now()
					client.WriteStream(file, 96<<20, 1<<20, func(int64) {
						durations = append(durations, (eng.Now() - t0).Seconds())
						eng.After(period, func() { dump(n - 1) })
					})
				}
				if eng.Now() >= start {
					dump(5)
				} else {
					eng.At(start, func() { dump(5) })
				}
			})
		}
		app(0, 0)
		app(1, offset)
		eng.Run()
		return stats.Percentile(durations, 0.95)
	}
	aligned := run(0)
	staggered := run(sim.Second) // half the period
	if staggered >= aligned {
		t.Fatalf("staggered p95 dump %.3fs not better than aligned %.3fs", staggered, aligned)
	}
	if aligned/staggered < 1.3 {
		t.Fatalf("stagger gain only %.2fx (aligned %.3fs vs staggered %.3fs)",
			aligned/staggered, aligned, staggered)
	}
}

// TestFullCenterBuildAllocations pins what a full-scale two-namespace
// center with its fabric costs to build, the build a chaos campaign runs
// twice: the fabric links, drives, RAID groups and OSTs come from slabs,
// and an OST binds its stripe-flush callback on its first flush, not at
// build time (2,016 OSTs would otherwise cost one closure each).
func TestFullCenterBuildAllocations(t *testing.T) {
	cfg := Config{Scale: 1, Namespaces: 2, UseFabric: true, Seed: 42}
	n := testing.AllocsPerRun(1, func() { New(cfg) })
	if n > 1000 {
		t.Errorf("a full two-namespace center build allocates %.0f times, want at most 1,000", n)
	}
}
