// Benchmarks regenerating every figure and quantitative claim of the
// paper. Each benchmark runs the experiment in the timed loop and
// prints its series/rows exactly once per process (so `go test
// -bench=.` emits the reproduction tables alongside the timings).
//
// Experiment ids (F* = figures, E* = embedded quantitative claims)
// follow DESIGN.md; EXPERIMENTS.md records paper-vs-measured values.
// F3, F4, E1, E2, E3, E6, E8, E11, E13 and A2 run their study from
// internal/experiment, the one definition `spidersim <study>` shares.
package spiderfs_test

import (
	"fmt"
	"sync"
	"testing"

	"spiderfs/internal/benchsuite"
	"spiderfs/internal/center"
	"spiderfs/internal/disk"
	"spiderfs/internal/experiment"
	"spiderfs/internal/failure"
	"spiderfs/internal/iosi"
	"spiderfs/internal/lustre"
	"spiderfs/internal/monitor"
	"spiderfs/internal/netsim"
	"spiderfs/internal/placement"
	"spiderfs/internal/provision"
	"spiderfs/internal/qa"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/tools"
	"spiderfs/internal/topology"
	"spiderfs/internal/workload"
)

var printGate sync.Map

// printOnce emits a reproduction table exactly once per experiment id,
// no matter how many times the benchmark framework re-invokes the
// function while calibrating b.N.
func printOnce(id, body string) {
	if _, loaded := printGate.LoadOrStore(id, true); loaded {
		return
	}
	fmt.Printf("\n--- %s ---\n%s", id, body)
}

// benchStudy runs the named internal/experiment study at its benchmark
// seed, prints its table once and reports its headline.
func benchStudy(b *testing.B, name string) {
	s, ok := experiment.Lookup(name)
	if !ok {
		b.Fatalf("no study %q", name)
	}
	var r experiment.Result
	for i := 0; i < b.N; i++ {
		r = s.Run(s.Seed)
	}
	printOnce(r.Title, r.Body)
	b.ReportMetric(r.Headline, s.Unit)
}

// ---------------------------------------------------------------- F2

func BenchmarkFig2RouterPlacement(b *testing.B) {
	var spread, zoned, clumpedD float64
	var p topology.Placement
	for i := 0; i < b.N; i++ {
		p = topology.PlaceRouters(topology.TitanCabinets(), topology.TitanTorus(), 110, 9)
		spread = p.MeanClientRouterDistance(false)
		zoned = p.MeanClientRouterDistance(true)
		clumped := p
		clumped.Modules = append([]topology.IOModule(nil), p.Modules...)
		for j := range clumped.Modules {
			clumped.Modules[j].Coord = topology.Coord{X: 0, Y: 0, Z: j % 24}
		}
		clumpedD = clumped.MeanClientRouterDistance(false)
	}
	printOnce("F2 router placement (Fig. 2)", p.RenderXYMap()+
		fmt.Sprintf("mean client->router hops: %.2f spread / %.2f FGR-zoned / %.2f clumped\n",
			spread, zoned, clumpedD))
	b.ReportMetric(spread, "hops")
}

// ---------------------------------------------------------------- F3

func BenchmarkFig3TransferSize(b *testing.B) { benchStudy(b, "fig3") }

// ---------------------------------------------------------------- F4

func BenchmarkFig4ClientScaling(b *testing.B) { benchStudy(b, "fig4") }

// ---------------------------------------------------------------- E1

func BenchmarkE1WorkloadMix(b *testing.B) { benchStudy(b, "mixed") }

// ---------------------------------------------------------------- E2

func BenchmarkE2CheckpointSizing(b *testing.B) { benchStudy(b, "checkpoint") }

// ---------------------------------------------------------------- E3

func BenchmarkE3SlowDiskRounds(b *testing.B) { benchStudy(b, "slowdisk") }

// ---------------------------------------------------------------- E4

func BenchmarkE4FGRvsNaive(b *testing.B) {
	run := func(mode netsim.RouteMode, seed uint64) (sim.Time, netsim.CongestionReport) {
		eng := sim.NewEngine()
		cfg := netsim.Spider2Fabric()
		cfg.Torus = topology.Torus{NX: 5, NY: 4, NZ: 4}
		pl := topology.PlaceRouters(topology.CabinetGrid{Cols: 5, Rows: 2}, cfg.Torus, 16, 4)
		f := netsim.NewFabric(eng, cfg, pl, 32)
		src := rng.New(seed)
		for i := 0; i < 48; i++ {
			c := cfg.Torus.CoordOf((i * 7) % cfg.Torus.Nodes())
			f.Net.StartFlow(f.ClientPath(c, i%32, mode, src), 1e9, nil)
		}
		eng.Run()
		return eng.Now(), f.Congestion(eng.Now())
	}
	var fgrT, naiveT sim.Time
	var fgrRep, naiveRep netsim.CongestionReport
	for i := 0; i < b.N; i++ {
		fgrT, fgrRep = run(netsim.RouteFGR, 800)
		naiveT, naiveRep = run(netsim.RouteNaive, 800)
	}
	printOnce("E4 fine-grained routing (paper Sec. V-B)", fmt.Sprintf(
		"48 streams x 1 GB each:\n  FGR:   %v, hottest link %.2f (%s), core bytes %.1e\n  naive: %v, hottest link %.2f (%s), core bytes %.1e\nFGR finishes %.2fx sooner and keeps traffic off the core\n",
		fgrT, fgrRep.MaxUtilization, fgrRep.HotLink, fgrRep.CoreBytes,
		naiveT, naiveRep.MaxUtilization, naiveRep.HotLink, naiveRep.CoreBytes,
		float64(naiveT)/float64(fgrT)))
	b.ReportMetric(float64(naiveT)/float64(fgrT), "speedup")
}

// ---------------------------------------------------------------- E5

func e5Run(balanced bool) float64 {
	eng := sim.NewEngine()
	p := lustre.TestNamespace()
	p.NumSSU = 2
	p.OSTsPerSSU = 4
	p.OSSPerSSU = 2
	fs := lustre.Build(eng, p, rng.New(900))
	noise := lustre.NewClient(1000, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	var noiseFiles []*lustre.File
	// Three competing streams per hot OST: a heavily contended SSU, as
	// in the paper's synthetic experiments.
	for i := 0; i < 12; i++ {
		fs.CreateOn(fmt.Sprintf("noise/%d", i), []int{i % 4}, func(f *lustre.File) {
			noiseFiles = append(noiseFiles, f)
		})
	}
	eng.Run()
	for _, f := range noiseFiles {
		noise.WriteUntil(f, eng.Now()+2*sim.Second, 1<<20, nil)
	}
	eng.RunUntil(eng.Now() + 50*sim.Millisecond)
	var job *lustre.File
	if balanced {
		placement.New(fs, placement.Weights{}).CreateBalanced("job/out", 2, func(f *lustre.File) { job = f })
	} else {
		fs.CreateOn("job/out", []int{0, 1}, func(f *lustre.File) { job = f })
	}
	eng.RunUntil(eng.Now() + 10*sim.Millisecond)
	client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	start := eng.Now()
	var doneAt sim.Time
	client.WriteStream(job, 32<<20, 1<<20, func(int64) { doneAt = eng.Now() })
	eng.Run()
	return float64(32<<20) / (doneAt - start).Seconds()
}

// e5S3D runs the §VI-A production case: the S3D combustion code in a
// noisy environment, with and without the libPIO create hook.
func e5S3D(balanced bool) float64 {
	eng := sim.NewEngine()
	p := lustre.TestNamespace()
	p.NumSSU = 2
	p.OSTsPerSSU = 4
	p.OSSPerSSU = 2
	fs := lustre.Build(eng, p, rng.New(901))
	noise := lustre.NewClient(999, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	var noiseFiles []*lustre.File
	for i := 0; i < 12; i++ {
		fs.CreateOn(fmt.Sprintf("noise/%d", i), []int{i % 4}, func(f *lustre.File) {
			noiseFiles = append(noiseFiles, f)
		})
	}
	eng.Run()
	for _, f := range noiseFiles {
		noise.WriteUntil(f, eng.Now()+10*sim.Second, 1<<20, nil)
	}
	eng.RunUntil(eng.Now() + 50*sim.Millisecond)
	cfg := workload.S3DConfig{Ranks: 8, DumpBytes: 64 << 20, Dumps: 2, ComputePhase: 200 * sim.Millisecond}
	if balanced {
		bal := placement.New(fs, placement.Weights{})
		cfg.CreateFile = func(fs *lustre.FS, path string, sc int, done func(*lustre.File)) {
			bal.CreateBalanced(path, sc, done)
		}
	}
	return workload.RunS3D(fs, cfg).DumpBps
}

func BenchmarkE5LibPIO(b *testing.B) {
	var def, bal, s3dDef, s3dBal float64
	for i := 0; i < b.N; i++ {
		def = e5Run(false)
		bal = e5Run(true)
		s3dDef = e5S3D(false)
		s3dBal = e5S3D(true)
	}
	printOnce("E5 libPIO balanced placement (paper Sec. VI-A)", fmt.Sprintf(
		"synthetic job under contention: default %.0f MB/s, libPIO %.0f MB/s -> +%.0f%% (paper: >70%%)\nS3D dumps in production noise: default %.0f MB/s, libPIO %.0f MB/s -> +%.0f%% (paper: ~24%%)\n",
		def/1e6, bal/1e6, (bal/def-1)*100,
		s3dDef/1e6, s3dBal/1e6, (s3dBal/s3dDef-1)*100))
	b.ReportMetric((bal/def-1)*100, "gain-%")
}

// ---------------------------------------------------------------- E6

func BenchmarkE6DataCentric(b *testing.B) { benchStudy(b, "workflow") }

// ---------------------------------------------------------------- E7

func BenchmarkE7FillLevel(b *testing.B) {
	fills := []float64{0.10, 0.50, 0.70, 0.90}
	rates := make([]float64, len(fills))
	for i := 0; i < b.N; i++ {
		for j, fill := range fills {
			eng := sim.NewEngine()
			fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(uint64(1100+j)))
			for _, ost := range fs.OSTs {
				ost.SetFill(fill)
			}
			client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
			var f *lustre.File
			fs.Create("fill/test", 4, func(file *lustre.File) { f = file })
			eng.Run()
			// Sustained rate: time until the data is on the platters
			// (drain included) — the write-back cache would otherwise
			// hide the fragmentation cost of a full file system.
			start := eng.Now()
			client.WriteStream(f, 64<<20, 1<<20, nil)
			eng.Run()
			rates[j] = float64(64<<20) / (eng.Now() - start).Seconds() / 1e6
		}
	}
	body := fmt.Sprintf("%-8s %12s\n", "fill", "write MB/s")
	for j, fill := range fills {
		body += fmt.Sprintf("%-8.0f%% %12.1f\n", fill*100, rates[j])
	}
	body += "(paper: severe degradation past 70% full; visible effects past 50%)\n"
	printOnce("E7 fill-level degradation (paper Secs. IV-C, VI-C)", body)
	b.ReportMetric(rates[0]/rates[len(rates)-1], "empty/full-ratio")
}

// ---------------------------------------------------------------- E8

func BenchmarkE8HumanError(b *testing.B) { benchStudy(b, "incident") }

// ---------------------------------------------------------------- E9

func BenchmarkE9IOSI(b *testing.B) {
	var sig iosi.Signature
	const truePeriod = 3.0
	for i := 0; i < b.N; i++ {
		src := rng.New(1300)
		var runs []iosi.Series
		for r := 0; r < 4; r++ {
			s := iosi.Series{Interval: 100 * sim.Millisecond}
			lsrc := src.Split(fmt.Sprintf("r%d", r))
			for k := 0; k < 400; k++ {
				v := 3e9 * lsrc.Float64() // noisy shared-system floor
				if k%30 < 4 {             // 3 s period, 0.4 s bursts
					v += 40e9
				}
				s.Samples = append(s.Samples, v)
			}
			runs = append(runs, s)
		}
		sig = iosi.Extract(runs, 4)
	}
	printOnce("E9 IOSI signature extraction (paper Sec. VI-B)", fmt.Sprintf(
		"true period 3 s -> extracted %v; burst volume %.1f GB; confidence %.2f\n",
		sig.Period, sig.BurstVolume/1e9, sig.Confidence))
	b.ReportMetric(sig.Period.Seconds()/truePeriod, "period-ratio")
}

// --------------------------------------------------------------- E10

func BenchmarkE10ScalableTools(b *testing.B) {
	var duS, duP tools.DUResult
	var cpS, cpP tools.CopyResult
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(1400))
		tools.Populate(fs, tools.TreeSpec{Dirs: 10, FilesPerDir: 20, FileSize: 4 << 20, StripeCount: 2})
		eng.Run()
		tools.SerialDU(fs, nil, func(r tools.DUResult) { duS = r })
		eng.Run()
		tools.LustreDU(fs, nil, func(r tools.DUResult) { duP = r })
		eng.Run()
		var files []*lustre.File
		fs.Walk(nil, func(f *lustre.File) { files = append(files, f) })
		files = files[:64]
		tools.SerialCopy(fs, files, "cp-s", func(r tools.CopyResult) { cpS = r })
		eng.Run()
		tools.DCP(fs, files, "cp-p", 8, func(r tools.CopyResult) { cpP = r })
		eng.Run()
	}
	printOnce("E10 scalable tools (paper Sec. VI-C)", fmt.Sprintf(
		"du: %v with %d MDS ops -> LustreDU: %v with %d MDS ops (%.0fx)\ncp: %v -> dcp(8): %v (%.1fx)\n",
		duS.Duration, duS.MDSOps, duP.Duration, duP.MDSOps,
		float64(duS.Duration)/float64(duP.Duration),
		cpS.Duration, cpP.Duration, float64(cpS.Duration)/float64(cpP.Duration)))
	b.ReportMetric(float64(duS.Duration)/float64(duP.Duration), "du-speedup")
}

// --------------------------------------------------------------- E11

func BenchmarkE11Namespaces(b *testing.B) { benchStudy(b, "namespaces") }

// --------------------------------------------------------------- E12

func BenchmarkE12BlockVsFS(b *testing.B) {
	var over []benchsuite.Overhead
	for i := 0; i < b.N; i++ {
		sweep := benchsuite.Sweep{
			RequestSizes: []int64{64 << 10, 1 << 20},
			QueueDepths:  []int{8},
			WriteFracs:   []float64{0, 1},
			Random:       []bool{false, true},
			CellDuration: 300 * sim.Millisecond,
		}
		eng := sim.NewEngine()
		src := rng.New(1600)
		g := raid.BuildGroups(eng, 1, raid.Spider2Group(), disk.NLSAS2TB(), disk.DefaultPopulation(), src.Split("g"))[0]
		block := benchsuite.RunBlockLevel(eng, g, sweep, src.Split("b"))
		fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(1601))
		fsc := benchsuite.RunFSLevel(fs, sweep, src.Split("f"))
		over = benchsuite.CompareLevels(block, fsc)
	}
	body := fmt.Sprintf("%-24s %12s %12s %10s\n", "cell", "block MB/s", "fs MB/s", "overhead")
	for _, o := range over {
		body += fmt.Sprintf("%-24s %12.1f %12.1f %9.1f%%\n", o.Cell, o.BlockMBps, o.FSMBps, o.Frac*100)
	}
	body += "(the suite's purpose: comparing levels isolates file system software overhead)\n"
	printOnce("E12 block vs FS level (paper Sec. III-B)", body)
	b.ReportMetric(float64(len(over)), "cells")
}

// --------------------------------------------------------------- E13

func BenchmarkE13Purge(b *testing.B) { benchStudy(b, "purge") }

// --------------------------------------------------------------- E14

func BenchmarkE14ControllerUpgrade(b *testing.B) {
	var before, after float64
	for i := 0; i < b.N; i++ {
		run := func(up bool) float64 {
			c := center.New(center.Config{Small: true, Namespaces: 1, Upgraded: up, Seed: 1800})
			return c.RunIOR(0, workload.IORConfig{
				Clients: 32, TransferSize: 1 << 20, StoneWall: sim.Second,
			}).AggregateBps
		}
		before = run(false)
		after = run(true)
	}
	printOnce("E14 controller upgrade (paper Sec. V-C)", fmt.Sprintf(
		"pre-upgrade %.2f GB/s -> post-upgrade %.2f GB/s = %.2fx\n(paper: 320 -> 510 GB/s per namespace = 1.59x)\n",
		before/1e9, after/1e9, after/before))
	b.ReportMetric(after/before, "upgrade-ratio")
}

// --------------------------------------------------------------- E15

func BenchmarkE15Monitoring(b *testing.B) {
	var incidents int
	var hwRoot int
	var alerts int
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(1900))
		sched := monitor.NewScheduler(eng)
		for _, c := range monitor.StandardChecks(fs) {
			sched.Add(c)
		}
		sched.Start()
		coal := monitor.NewCoalescer(30 * sim.Second)
		inj := failure.NewInjector(eng, fsGroupsOf(fs), failure.DiskFailureConfig{
			AnnualFailureRate: 60, ReplaceDelay: 30 * sim.Minute,
		}, rng.New(1901))
		inj.Events = coal.Ingest
		inj.Start()
		failure.CableFlap(eng, coal.Ingest, "ib-leaf1", 2*sim.Hour)
		for _, ost := range fs.OSTs {
			ost.SetFill(0.75) // trip the fill warning
		}
		eng.RunUntil(12 * sim.Hour)
		inj.Stop()
		sched.Stop()
		eng.Run()
		coal.Close()
		incidents = len(coal.Incidents)
		hwRoot = 0
		for _, inc := range coal.Incidents {
			if inc.RootClass == monitor.Hardware {
				hwRoot++
			}
		}
		alerts = len(sched.Alerts)
	}
	printOnce("E15 monitoring pipeline (paper Sec. IV-A)", fmt.Sprintf(
		"12 h with fault injection: %d coalesced incidents (%d hardware-rooted), %d check alerts\n",
		incidents, hwRoot, alerts))
	b.ReportMetric(float64(incidents), "incidents")
}

// ------------------------------------------------------------ hero run

// BenchmarkHeroFabricRun is the end-to-end showcase: the full Titan
// torus (9,600 Gemini nodes, 74 routers) feeding a 1/6-scale namespace
// (3 SSUs, 168 OSTs, 1,680 drives) through FGR, 512 aggregated clients
// writing 1 MiB stonewall — the closest this repo gets to the paper's
// hero numbers in one simulation.
func BenchmarkHeroFabricRun(b *testing.B) {
	var agg float64
	var rep netsim.CongestionReport
	for i := 0; i < b.N; i++ {
		c := center.New(center.Config{Scale: 6, Namespaces: 1, UseFabric: true,
			RouteMode: netsim.RouteFGR, Seed: 2025})
		res := c.RunIOR(0, workload.IORConfig{
			Clients: 512, TransferSize: 1 << 20, StoneWall: 500 * sim.Millisecond,
		})
		agg = res.AggregateBps
		rep = c.Fabric.Congestion(c.Eng.Now())
	}
	printOnce("HERO full-fabric run (Titan torus -> FGR -> 1/6-scale namespace)", fmt.Sprintf(
		"512 clients, 1 MiB stonewall: %.1f GB/s at 1/6 scale -> %.0f GB/s namespace extrapolation\n"+
			"(paper: 320 GB/s per namespace pre-upgrade); hottest link %.2f (%s), core bytes %.1e (FGR keeps the core dark)\n",
		agg/1e9, agg*6/1e9, rep.MaxUtilization, rep.HotLink, rep.CoreBytes))
	b.ReportMetric(agg*6/1e9, "namespace-GB/s")
}

// --------------------------------------------------------------- E17

func BenchmarkE17LayerProfile(b *testing.B) {
	var rungs []spantrace.Rung
	for i := 0; i < b.N; i++ {
		rungs = qa.SpanLadder(lustre.TestNamespace(), 2050)
	}
	printOnce("E17 bottom-up layer profiling via spantrace waterfall (paper Sec. V, Lesson 12)",
		spantrace.RenderWaterfall(rungs)+
			"the ladder now falls out of one fully-traced write stream instead of four isolated probes:\n"+
			"every rung is the bandwidth that layer delivered while busy on the same I/O, and vs-below is\n"+
			"the \"lost performance in traversing from one layer to the next\" the methodology hunts\n"+
			"(paper ladder: disk 94% -> RAID 78% -> OST stack 62% -> client 84%; the RAID transition\n"+
			"reproduces as the parity-overhead rung, the client rung reflects the write-back ack)\n")
	// The regression metric is the deepest lossy transition: the
	// smallest vs-below efficiency among rungs that sit above another
	// rung and are actually bound by it (efficiency <= 1).
	worst := 1.0
	for i, r := range rungs {
		if i > 0 && r.Efficiency > 0 && r.Efficiency < worst {
			worst = r.Efficiency
		}
	}
	b.ReportMetric(worst, "worst-layer-eff")
}

func fsGroupsOf(fs *lustre.FS) []*raid.Group {
	out := make([]*raid.Group, 0, len(fs.OSTs))
	for _, o := range fs.OSTs {
		out = append(out, o.Group())
	}
	return out
}

// --------------------------------------------------------------- E16

func BenchmarkE16Provisioning(b *testing.B) {
	var dlTime, dfTime sim.Time
	var dlConv, dfConv provision.ConvergeResult
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		dlTime, _, _ = provision.FleetBoot(eng, 288, provision.DisklessProfile(), provision.Spider2Scripts(), 64, rng.New(2000))
		eng2 := sim.NewEngine()
		dfTime, _, _ = provision.FleetBoot(eng2, 288, provision.DiskFullProfile(), provision.Spider2Scripts(), 64, rng.New(2000))
		eng3 := sim.NewEngine()
		dlConv = provision.Converge(eng3, 288, provision.Diskless, rng.New(2001))
		eng4 := sim.NewEngine()
		dfConv = provision.Converge(eng4, 288, provision.DiskFull, rng.New(2001))
	}
	saving := provision.NodeCost(provision.DiskFull) - provision.NodeCost(provision.Diskless)
	printOnce("E16 diskless provisioning (paper Sec. IV-A)", fmt.Sprintf(
		"288-node fleet boot: diskless %v vs disk-full %v\nconfig converge: diskless %v (%d failures) vs disk-full %v (%d failures)\nhardware saving: $%.0f/node x 728 server+router nodes = $%.1fM\n",
		dlTime, dfTime, dlConv.Duration, dlConv.Failures, dfConv.Duration, dfConv.Failures,
		saving, saving*728/1e6))
	b.ReportMetric(float64(dfTime)/float64(dlTime), "boot-speedup")
}
