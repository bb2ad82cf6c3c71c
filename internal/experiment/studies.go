package experiment

import (
	"fmt"

	"spiderfs/internal/benchsuite"
	"spiderfs/internal/center"
	"spiderfs/internal/disk"
	"spiderfs/internal/failure"
	"spiderfs/internal/iosi"
	"spiderfs/internal/lustre"
	"spiderfs/internal/monitor"
	"spiderfs/internal/netsim"
	"spiderfs/internal/placement"
	"spiderfs/internal/procure"
	"spiderfs/internal/provision"
	"spiderfs/internal/purge"
	"spiderfs/internal/qa"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/stats"
	"spiderfs/internal/sweep"
	"spiderfs/internal/tools"
	"spiderfs/internal/topology"
	"spiderfs/internal/workload"
)

// ior runs one 300 ms stonewalled IOR point on a fresh small center.
func ior(seed uint64, clients int, xfer int64) workload.IORResult {
	c := center.New(center.Config{Small: true, Namespaces: 1, Seed: seed})
	return c.RunIOR(0, workload.IORConfig{
		Clients:      clients,
		TransferSize: xfer,
		StoneWall:    300 * sim.Millisecond,
	})
}

// Fig2 places Titan's 110 I/O modules in 9 zone bands (Fig. 2, §V-B)
// and compares the mean client-to-router distance with and without the
// FGR zone restriction and against all routers clumped in one column.
// The placement is deterministic: the seed is ignored. Headline: the
// spread placement's mean hop count.
func Fig2(uint64) Result {
	p := topology.PlaceRouters(topology.TitanCabinets(), topology.TitanTorus(), 110, 9)
	spread := p.MeanClientRouterDistance(false)
	zoned := p.MeanClientRouterDistance(true)
	clumped := p.Clumped().MeanClientRouterDistance(false)
	return Result{"F2 router placement (Fig. 2)", p.RenderXYMap() +
		fmt.Sprintf("mean client->router hops: %.2f spread / %.2f FGR-zoned / %.2f clumped\n",
			spread, zoned, clumped), []sweep.Metric{
		{Name: "spread_hops", Value: spread}, {Name: "zoned_hops", Value: zoned}, {Name: "clumped_hops", Value: clumped}}}
}

// Fig3 sweeps the IOR transfer size at 32 clients (Fig. 3, §V-C); point
// i runs at seed+i. Headline: the peak aggregate bandwidth in GB/s.
func Fig3(seed uint64) Result {
	body := fmt.Sprintf("%-10s %12s\n", "xfer", "agg MB/s")
	var peak float64
	var peakAt int64
	for i, sz := range []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		r := ior(seed+uint64(i), 32, sz)
		body += fmt.Sprintf("%-10d %12.1f\n", r.Transfer, r.AggregateBps/1e6)
		if r.AggregateBps > peak {
			peak, peakAt = r.AggregateBps, r.Transfer
		}
	}
	body += fmt.Sprintf("knee at %d bytes; plateau beyond the 1 MiB wire-RPC cap (paper: best at 1 MiB, mild decline after)\n", peakAt)
	return Result{"F3 IOR bandwidth vs transfer size (Fig. 3)", body, []sweep.Metric{
		{Name: "peak_gbps", Value: peak / 1e9}, {Name: "peak_xfer_bytes", Value: float64(peakAt)}}}
}

// Fig4 sweeps the IOR client count at 1 MiB transfers (Fig. 4, §V-C);
// point i runs at seed+i. Headline: the plateau bandwidth in GB/s.
func Fig4(seed uint64) Result {
	body := fmt.Sprintf("%-10s %12s\n", "clients", "agg MB/s")
	var plateau float64
	for i, n := range []int{2, 4, 8, 16, 32, 64, 128} {
		r := ior(seed+uint64(i), n, 1<<20)
		body += fmt.Sprintf("%-10d %12.1f\n", r.Clients, r.AggregateBps/1e6)
		if r.AggregateBps > plateau {
			plateau = r.AggregateBps
		}
	}
	body += "shape: near-linear scaling then a controller-bound plateau (paper: linear to ~6,000 clients, then steady)\n"
	return Result{"F4 IOR bandwidth vs client count (Fig. 4)", body, []sweep.Metric{{Name: "plateau_gbps", Value: plateau / 1e9}}}
}

// E1 characterizes 3 s of the §II mixed center-wide workload (namespace
// at seed, traffic at seed+1). Headline: the write fraction.
func E1(seed uint64) Result {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	cfg := workload.DefaultMixed()
	cfg.Duration = 3 * sim.Second
	cfg.MeanArrival = 4 * sim.Millisecond
	cfg.LargeMaxUnits = 4
	tr := workload.RunMixed(fs, cfg, rng.New(seed+1))
	small, large := 0, 0
	for _, s := range tr.Sizes {
		if s <= 16<<10 {
			small++
		} else if s >= 1<<20 {
			large++
		}
	}
	// Fit the Pareto tail above the median gap: the merged arrival
	// process of many streams is heavy-tailed in its tail, not its body.
	fit := stats.FitPareto(tr.InterArrivals, stats.Percentile(tr.InterArrivals, 0.5))
	n := float64(len(tr.Sizes))
	return Result{"E1 workload characterization (paper Sec. II)", fmt.Sprintf(
		"write fraction: %.2f (paper: 0.60)\nsize modality: %.0f%% <=16KiB, %.0f%% >=1MiB (paper: bimodal)\ninter-arrival Pareto tail alpha: %.2f over %d tail gaps (paper: long-tail Pareto)\n",
		tr.WriteFraction(), 100*float64(small)/n, 100*float64(large)/n, fit.Alpha, fit.N), []sweep.Metric{{Name: "write_frac", Value: tr.WriteFraction()}}}
}

// E2 works the §III-A checkpoint sizing arithmetic and runs a miniature
// checkpoint on a small center at seed. Headline: the sequential
// requirement in TB/s.
func E2(seed uint64) Result {
	seq := procure.CheckpointBandwidth(600e12, 0.75, 6*sim.Minute)
	rnd := procure.RandomDerate(1e12, 0.24)
	c := center.New(center.Config{Small: true, Namespaces: 1, Seed: seed})
	res := workload.RunCheckpoint(c.Namespaces[0], workload.CheckpointConfig{
		Writers: 64, BytesPerRank: 16 << 20,
	})
	return Result{"E2 checkpoint sizing (paper Sec. III-A)", fmt.Sprintf(
		"75%% of 600 TB in 6 min -> %.2f TB/s (paper: the 1 TB/s class requirement)\nrandom derate at 24%% -> %.0f GB/s (paper: 240 GB/s)\nsimulated miniature checkpoint: %.2f GB/s on 2/56-scale controllers\n",
		seq/1e12, rnd/1e9, res.AggregateBps/1e9), []sweep.Metric{
		{Name: "seq_tbps", Value: seq / 1e12}, {Name: "random_gbps", Value: rnd / 1e9}}}
}

// E3 runs the §V-A slow-disk elimination campaign on 32 RAID groups
// (fleet at seed, campaign at seed+1). Headline: the fraction of
// drives replaced.
func E3(seed uint64) Result {
	rep, drives := qa.SlowDiskCampaign(32, 32<<20, rng.New(seed), rng.New(seed+1))
	body := ""
	for _, r := range rep.Rounds {
		body += fmt.Sprintf("round %d: mean %.0f MB/s, spread %.1f%%, replaced %d\n",
			r.Index, r.MeanMBps, r.Spread*100, r.Replaced)
	}
	body += fmt.Sprintf("%v\n(paper: ~1,500 + ~500 of 20,160 drives replaced; 5%%->7.5%% envelope)\n", rep)
	return Result{"E3 slow-disk elimination (paper Sec. V-A)", body, slowDiskMetrics(rep, drives)}
}

// slowDiskMetrics is E3's metric list, which the point run and every
// e3-slowdisk replica report: aggregate_gain only when the first round
// measured a positive aggregate.
func slowDiskMetrics(rep qa.Report, drives int) []sweep.Metric {
	converged := 0.0
	if rep.Converged {
		converged = 1
	}
	ms := []sweep.Metric{
		{Name: "rounds", Value: float64(len(rep.Rounds))},
		{Name: "replaced_frac", Value: float64(rep.TotalReplaced) / float64(drives)},
		{Name: "initial_spread", Value: rep.Rounds[0].Spread},
		{Name: "final_spread", Value: rep.Rounds[len(rep.Rounds)-1].Spread},
		{Name: "converged", Value: converged},
	}
	if rep.BeforeMBps > 0 {
		ms = append(ms, sweep.Metric{Name: "aggregate_gain", Value: rep.AfterMBps/rep.BeforeMBps - 1})
	}
	return ms
}

// miniFabric builds the Spider II fabric E4 and A3 route over, scaled
// down to a 5x4x4 torus with 16 routers in 4 groups and 32 OSSes.
func miniFabric() (*sim.Engine, *netsim.Fabric) {
	eng := sim.NewEngine()
	torus, pl := topology.MiniTitan()
	return eng, netsim.NewFabric(eng, netsim.FabricConfig{Torus: torus}, pl, 32)
}

// E4 streams 48 x 1 GB client flows over the mini fabric under fine-
// grained and naive routing (§V-B), route choices drawn at seed.
// Headline: how many times sooner FGR finishes.
func E4(seed uint64) Result {
	run := func(mode netsim.RouteMode) (sim.Time, netsim.CongestionReport) {
		eng, f := miniFabric()
		torus := f.Cfg.Torus
		src := rng.New(seed)
		for i := 0; i < 48; i++ {
			c := torus.CoordOf((i * 7) % torus.Nodes())
			f.StartClientFlow(c, i%32, mode, 1e9, src, nil)
		}
		eng.Run()
		return eng.Now(), f.Congestion(eng.Now())
	}
	fgrT, fgrRep := run(netsim.RouteFGR)
	naiveT, naiveRep := run(netsim.RouteNaive)
	speedup := float64(naiveT) / float64(fgrT)
	return Result{"E4 fine-grained routing (paper Sec. V-B)", fmt.Sprintf(
		"48 streams x 1 GB each:\n  FGR:   %v, hottest link %.2f (%s), core bytes %.1e\n  naive: %v, hottest link %.2f (%s), core bytes %.1e\nFGR finishes %.2fx sooner and keeps traffic off the core\n",
		fgrT, fgrRep.MaxUtilization, fgrRep.HotLink, fgrRep.CoreBytes,
		naiveT, naiveRep.MaxUtilization, naiveRep.HotLink, naiveRep.CoreBytes,
		speedup), []sweep.Metric{{Name: "speedup", Value: speedup}}}
}

// noisyNamespace builds E5's heavily contended 2-SSU namespace at seed:
// client noiseID keeps three write streams on each of OSTs 0-3 busy for
// noiseFor. It returns with the engine 50 ms into the noise.
func noisyNamespace(seed uint64, noiseID int, noiseFor sim.Time) (*sim.Engine, *lustre.FS) {
	eng := sim.NewEngine()
	p := lustre.TestNamespace()
	p.NumSSU = 2
	p.OSTsPerSSU = 4
	p.OSSPerSSU = 2
	fs := lustre.Build(eng, p, rng.New(seed))
	noise := lustre.NewClient(noiseID, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	var noiseFiles []*lustre.File
	for i := 0; i < 12; i++ {
		fs.CreateOn(fmt.Sprintf("noise/%d", i), []int{i % 4}, func(f *lustre.File) {
			noiseFiles = append(noiseFiles, f)
		})
	}
	eng.Run()
	for _, f := range noiseFiles {
		noise.WriteUntil(f, eng.Now()+noiseFor, 1<<20, nil)
	}
	eng.RunUntil(eng.Now() + 50*sim.Millisecond)
	return eng, fs
}

// E5 measures libPIO balanced placement (§VI-A): a synthetic 32 MiB job
// on the noisy namespace at seed, and the S3D combustion code's dumps in
// production noise at seed+1, each with the default and the balanced
// create. Headline: the synthetic job's gain in percent.
func E5(seed uint64) Result {
	def, bal := libPIOJob(seed, false), libPIOJob(seed, true)
	s3dDef, s3dBal := libPIOS3D(seed+1, false), libPIOS3D(seed+1, true)
	return Result{"E5 libPIO balanced placement (paper Sec. VI-A)", fmt.Sprintf(
		"synthetic job under contention: default %.0f MB/s, libPIO %.0f MB/s -> +%.0f%% (paper: >70%%)\nS3D dumps in production noise: default %.0f MB/s, libPIO %.0f MB/s -> +%.0f%% (paper: ~24%%)\n",
		def/1e6, bal/1e6, (bal/def-1)*100,
		s3dDef/1e6, s3dBal/1e6, (s3dBal/s3dDef-1)*100), []sweep.Metric{
		{Name: "job_gain_pct", Value: (bal/def - 1) * 100}, {Name: "s3d_gain_pct", Value: (s3dBal/s3dDef - 1) * 100}}}
}

// libPIOJob is E5's synthetic job: the write rate of one 2-stripe
// 32 MiB stream, placed on the busy OSTs 0 and 1 or by libPIO.
func libPIOJob(seed uint64, balanced bool) float64 {
	eng, fs := noisyNamespace(seed, 1000, 2*sim.Second)
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

// libPIOS3D is E5's §VI-A production case: S3D's dump bandwidth in
// the noisy namespace, with and without the libPIO create hook.
func libPIOS3D(seed uint64, balanced bool) float64 {
	_, fs := noisyNamespace(seed, 999, 10*sim.Second)
	cfg := workload.S3DConfig{Ranks: 8, DumpBytes: 64 << 20, Dumps: 2, ComputePhase: 200 * sim.Millisecond}
	if balanced {
		bal := placement.New(fs, placement.Weights{})
		cfg.CreateFile = func(fs *lustre.FS, path string, sc int, done func(*lustre.File)) {
			bal.CreateBalanced(path, sc, done)
		}
	}
	return workload.RunS3D(fs, cfg).DumpBps
}

// E6 contrasts the data-centric and machine-exclusive workflows on
// 256 MiB of output (shared namespace at seed, simulation and viz
// namespaces at seed+1 and seed+2) and prices both acquisition models.
// Headline: exclusive over data-centric workflow time.
func E6(seed uint64) Result {
	eng := sim.NewEngine()
	shared := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	dc := center.DataCentricWorkflow(shared, 256<<20, 4, 4)
	eng2 := sim.NewEngine()
	simFS := lustre.Build(eng2, lustre.TestNamespace(), rng.New(seed+1))
	p := lustre.TestNamespace()
	p.Name = "viz"
	vizFS := lustre.Build(eng2, p, rng.New(seed+2))
	ex := center.ExclusiveWorkflow(simFS, vizFS, 256<<20, 4, 4, 10e9)
	cmp := procure.CompareModels([]procure.Platform{
		{MemBytes: 710e12, WorkflowShareBytes: 100e12}, // titan
		{MemBytes: 30e12, WorkflowShareBytes: 20e12},   // analysis
		{MemBytes: 20e12, WorkflowShareBytes: 10e12},   // viz
		{MemBytes: 10e12, WorkflowShareBytes: 5e12},    // dtn
	}, procure.Spider2SSU(), 10e9)
	return Result{"E6 data-centric vs machine-exclusive (paper Secs. II, VII)", fmt.Sprintf(
		"workflow: data-centric %v vs exclusive %v (transfer %v, %d MiB moved)\nacquisition: %v\n",
		dc.Total, ex.Total, ex.TransferTime, ex.BytesMoved>>20, cmp),
		[]sweep.Metric{{Name: "exclusive_over_dc", Value: float64(ex.Total) / float64(dc.Total)}}}
}

// streamMBps writes total bytes in xfer-sized requests through one
// client to a fresh file of the given stripe count on a namespace at
// seed, after tune has set up every OST. The rate is sustained: it runs
// until the data is on the platters (drain included), so the write-back
// cache cannot hide what tune costs.
func streamMBps(seed uint64, tune func(*lustre.OST), path string, stripes int, total, xfer int64) float64 {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	for _, ost := range fs.OSTs {
		tune(ost)
	}
	client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	var f *lustre.File
	fs.Create(path, stripes, func(file *lustre.File) { f = file })
	eng.Run()
	start := eng.Now()
	client.WriteStream(f, total, xfer, nil)
	eng.Run()
	return float64(total) / (eng.Now() - start).Seconds() / 1e6
}

// E7 streams 64 MiB onto namespaces filled to 10, 50, 70 and 90%
// (§§IV-C, VI-C); fill level j runs at seed+j. Headline: the empty over
// full write rate.
func E7(seed uint64) Result {
	fills := []float64{0.10, 0.50, 0.70, 0.90}
	rates := make([]float64, len(fills))
	body := fmt.Sprintf("%-8s %12s\n", "fill", "write MB/s")
	for j, fill := range fills {
		rates[j] = streamMBps(seed+uint64(j), func(o *lustre.OST) { o.SetFill(fill) }, "fill/test", 4, 64<<20, 1<<20)
		body += fmt.Sprintf("%-8.0f%% %12.1f\n", fill*100, rates[j])
	}
	body += "(paper: severe degradation past 70% full; visible effects past 50%)\n"
	return Result{"E7 fill-level degradation (paper Secs. IV-C, VI-C)", body, []sweep.Metric{{Name: "empty_over_full", Value: rates[0] / rates[len(rates)-1]}}}
}

// E8 replays the §IV-E human-error incident under the Spider I layout at
// seed and the Spider II layout at seed+1. Headline: the Spider I
// recovery percentage.
func E8(seed uint64) Result {
	s1 := failure.HumanErrorScenario(raid.Spider1Layout(), seed)
	s2 := failure.HumanErrorScenario(raid.Spider2Layout(), seed+1)
	rate := 100 * float64(s1.FilesRecovered) / float64(s1.FilesRecovered+s1.FilesLost)
	return Result{"E8 human-error incident (paper Sec. IV-E)", fmt.Sprintf(
		"spider1 5x2 layout:  %d groups failed, %d journal entries lost, %.1f%% recovered (paper: >1M files, 95%%, two weeks)\nspider2 10x1 layout: %d groups failed (same operator actions tolerated)\n",
		s1.GroupsFailed, s1.JournalLost, rate, s2.GroupsFailed), []sweep.Metric{{Name: "recovered_pct", Value: rate},
		{Name: "spider1_groups_failed", Value: float64(s1.GroupsFailed)}, {Name: "spider2_groups_failed", Value: float64(s2.GroupsFailed)}}}
}

// E9 extracts an I/O signature (§VI-B) from four noisy server-side logs
// of a 3 s-period application, drawn from seed. Headline: the extracted
// over the true period.
func E9(seed uint64) Result {
	const truePeriod = 3.0
	src := rng.New(seed)
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
	sig := iosi.Extract(runs, 4)
	return Result{"E9 IOSI signature extraction (paper Sec. VI-B)", fmt.Sprintf(
		"true period 3 s -> extracted %v; burst volume %.1f GB; confidence %.2f\n",
		sig.Period, sig.BurstVolume/1e9, sig.Confidence), []sweep.Metric{{Name: "period_ratio", Value: sig.Period.Seconds() / truePeriod},
		{Name: "burst_volume_gb", Value: sig.BurstVolume / 1e9}, {Name: "confidence", Value: sig.Confidence}}}
}

// E10 runs du against LustreDU and cp against dcp(8) over a 200-file
// tree on a namespace at seed (§VI-C). Headline: the LustreDU speedup.
func E10(seed uint64) Result {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	tools.Populate(fs, tools.TreeSpec{Dirs: 10, FilesPerDir: 20, FileSize: 4 << 20, StripeCount: 2})
	eng.Run()
	var duS, duP tools.DUResult
	var cpS, cpP tools.CopyResult
	tools.SerialDU(fs, nil, func(r tools.DUResult) { duS = r })
	eng.Run()
	tools.LustreDU(fs, nil, func(r tools.DUResult) { duP = r })
	eng.Run()
	var files []*lustre.File
	fs.Walk(nil, func(f *lustre.File) { files = append(files, f) })
	files = files[:64]
	tools.DCP(fs, files, "cp-s", 1, func(r tools.CopyResult) { cpS = r })
	eng.Run()
	tools.DCP(fs, files, "cp-p", 8, func(r tools.CopyResult) { cpP = r })
	eng.Run()
	duSpeedup := float64(duS.Duration) / float64(duP.Duration)
	return Result{"E10 scalable tools (paper Sec. VI-C)", fmt.Sprintf(
		"du: %v with %d MDS ops -> LustreDU: %v with %d MDS ops (%.0fx)\ncp: %v -> dcp(8): %v (%.1fx)\n",
		duS.Duration, duS.MDSOps, duP.Duration, duP.MDSOps, duSpeedup,
		cpS.Duration, cpP.Duration, float64(cpS.Duration)/float64(cpP.Duration)), []sweep.Metric{{Name: "du_speedup", Value: duSpeedup}}}
}

// E11 runs a 3,000-op metadata storm against one namespace and against
// two (namespace j at seed+j). Headline: the two-namespace throughput
// gain.
func E11(seed uint64) Result {
	run := func(n int) center.MetadataLoadResult {
		eng := sim.NewEngine()
		var namespaces []*lustre.FS
		for j := 0; j < n; j++ {
			p := lustre.TestNamespace()
			p.Name = fmt.Sprintf("ns%d", j)
			namespaces = append(namespaces, lustre.Build(eng, p, rng.New(seed+uint64(j))))
		}
		return center.MetadataStorm(namespaces, 3000, 64)
	}
	one, two := run(1), run(2)
	return Result{"E11 single vs multiple namespaces (paper Sec. IV-C)", fmt.Sprintf(
		"1 namespace:  %.0f metadata ops/s (MDS util %.2f), blast radius 100%%\n2 namespaces: %.0f metadata ops/s (MDS util %.2f), blast radius 50%%\n",
		one.OpsPerSec, one.Utilization, two.OpsPerSec, two.Utilization), []sweep.Metric{{Name: "split_gain", Value: two.OpsPerSec / one.OpsPerSec}}}
}

// E12 runs the §III-B benchmark suite's matched sweep at the block level
// (one RAID group from seed) and the file system level (a namespace at
// seed+1). Headline: the number of compared cells.
func E12(seed uint64) Result {
	grid := benchsuite.Sweep{
		RequestSizes: []int64{64 << 10, 1 << 20},
		QueueDepths:  []int{8},
		WriteFracs:   []float64{0, 1},
		Random:       []bool{false, true},
		CellDuration: 300 * sim.Millisecond,
	}
	eng := sim.NewEngine()
	src := rng.New(seed)
	g := raid.BuildGroups(eng, 1, disk.NLSAS2TB(), src.Split("g"))[0]
	block := benchsuite.RunBlockLevel(eng, g, grid, src.Split("b"))
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed+1))
	fsc := benchsuite.RunFSLevel(fs, grid, src.Split("f"))
	over := benchsuite.CompareLevels(block, fsc)
	body := fmt.Sprintf("%-24s %12s %12s %10s\n", "cell", "block MB/s", "fs MB/s", "overhead")
	for _, o := range over {
		body += fmt.Sprintf("%-24s %12.1f %12.1f %9.1f%%\n", o.Cell, o.BlockMBps, o.FSMBps, o.Frac*100)
	}
	body += "(the suite's purpose: comparing levels isolates file system software overhead)\n"
	return Result{"E12 block vs FS level (paper Sec. III-B)", body, []sweep.Metric{{Name: "cells", Value: float64(len(over))}}}
}

// e13FilesPerDay is E13's production rate: the study writes exactly
// this many files a day, and the e13-purge sweep draws each day's count
// from a Poisson distribution with this mean.
const e13FilesPerDay = 20

// E13 runs 25 days of production (20 files of 8 MiB a day) under the
// §IV-C 14-day purge policy on a namespace at seed. Headline: the files
// resident at the end.
func E13(seed uint64) Result {
	p, fs := purge.Residency(seed, func() int { return e13FilesPerDay })
	return Result{"E13 purge policy (paper Sec. IV-C)", fmt.Sprintf(
		"%d days at %d files/day under the 14-day policy: %d sweeps, %d deleted, %d resident (~15 days of production)\n",
		purge.ResidencyDays, e13FilesPerDay, len(p.Sweeps), p.Deleted, fs.NumFiles), purgeMetrics(p, fs)}
}

// purgeMetrics is E13's metric list, which the point run and every
// e13-purge replica report.
func purgeMetrics(p *purge.Purger, fs *lustre.FS) []sweep.Metric {
	return []sweep.Metric{
		{Name: "resident_files", Value: float64(fs.NumFiles)},
		{Name: "resident_days", Value: float64(fs.NumFiles) / e13FilesPerDay},
		{Name: "deleted_files", Value: float64(p.Deleted)},
		{Name: "purge_sweeps", Value: float64(len(p.Sweeps))},
		{Name: "freed_gib", Value: float64(p.Freed) / (1 << 30)},
		{Name: "final_fill", Value: p.Sweeps[len(p.Sweeps)-1].FillAfter},
	}
}

// E14 runs 32 IOR clients against a small center at seed before and
// after the §V-C controller upgrade. Headline: the upgrade ratio.
func E14(seed uint64) Result {
	run := func(up bool) float64 {
		c := center.New(center.Config{Small: true, Namespaces: 1, Upgraded: up, Seed: seed})
		return c.RunIOR(0, workload.IORConfig{
			Clients: 32, TransferSize: 1 << 20, StoneWall: sim.Second,
		}).AggregateBps
	}
	before, after := run(false), run(true)
	return Result{"E14 controller upgrade (paper Sec. V-C)", fmt.Sprintf(
		"pre-upgrade %.2f GB/s -> post-upgrade %.2f GB/s = %.2fx\n(paper: 320 -> 510 GB/s per namespace = 1.59x)\n",
		before/1e9, after/1e9, after/before), []sweep.Metric{{Name: "upgrade_ratio", Value: after / before}}}
}

// E15 runs 12 h of the §IV-A monitoring pipeline on a namespace at seed
// under injected disk failures (drawn at seed+1), a cable flap and a
// fill warning. Headline: the coalesced incident count.
func E15(seed uint64) Result {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	sched := monitor.NewScheduler(eng)
	for _, c := range monitor.StandardChecks(fs) {
		sched.Add(c)
	}
	sched.Start()
	coal := &monitor.Coalescer{}
	groups := make([]*raid.Group, 0, len(fs.OSTs))
	for _, o := range fs.OSTs {
		groups = append(groups, o.Group())
	}
	inj := failure.NewInjector(eng, groups, failure.DiskFailureConfig{
		AnnualFailureRate: 60, ReplaceDelay: 30 * sim.Minute,
	}, rng.New(seed+1))
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
	hwRoot := 0
	for _, inc := range coal.Incidents {
		if inc.RootClass == monitor.Hardware {
			hwRoot++
		}
	}
	return Result{"E15 monitoring pipeline (paper Sec. IV-A)", fmt.Sprintf(
		"12 h with fault injection: %d coalesced incidents (%d hardware-rooted), %d check alerts\n",
		len(coal.Incidents), hwRoot, len(sched.Alerts)), []sweep.Metric{{Name: "incidents", Value: float64(len(coal.Incidents))}}}
}

// E16 boots a 288-node fleet diskless and disk-full (boot draws at
// seed, configuration converge at seed+1) and prices the disks the
// diskless design removes (§IV-A). Headline: the boot speedup.
func E16(seed uint64) Result {
	dlTime, _, _ := provision.FleetBoot(sim.NewEngine(), 288, provision.DisklessProfile(), provision.Spider2Scripts(), 64, rng.New(seed))
	dfTime, _, _ := provision.FleetBoot(sim.NewEngine(), 288, provision.DiskFullProfile(), provision.Spider2Scripts(), 64, rng.New(seed))
	dlConv := provision.Converge(sim.NewEngine(), 288, provision.Diskless, rng.New(seed+1))
	dfConv := provision.Converge(sim.NewEngine(), 288, provision.DiskFull, rng.New(seed+1))
	saving := provision.NodeCost(provision.DiskFull) - provision.NodeCost(provision.Diskless)
	return Result{"E16 diskless provisioning (paper Sec. IV-A)", fmt.Sprintf(
		"288-node fleet boot: diskless %v vs disk-full %v\nconfig converge: diskless %v (%d failures) vs disk-full %v (%d failures)\nhardware saving: $%.0f/node x 728 server+router nodes = $%.1fM\n",
		dlTime, dfTime, dlConv.Duration, dlConv.Failures, dfConv.Duration, dfConv.Failures,
		saving, saving*728/1e6), []sweep.Metric{{Name: "boot_speedup", Value: float64(dfTime) / float64(dlTime)}}}
}

// E17 derives the §V / Lesson 12 bottom-up layer ladder from the span
// waterfall of one fully traced write stream on a namespace at seed.
// Headline: the deepest lossy transition, the smallest vs-below
// efficiency among rungs that sit above another rung.
func E17(seed uint64) Result {
	rungs := qa.SpanLadder(lustre.TestNamespace(), seed)
	worst := 1.0
	for i, r := range rungs {
		if i > 0 && r.Efficiency > 0 && r.Efficiency < worst {
			worst = r.Efficiency
		}
	}
	return Result{"E17 bottom-up layer profiling via spantrace waterfall (paper Sec. V, Lesson 12)",
		spantrace.RenderWaterfall(rungs) +
			"the ladder now falls out of one fully-traced write stream instead of four isolated probes:\n" +
			"every rung is the bandwidth that layer delivered while busy on the same I/O, and vs-below is\n" +
			"the \"lost performance in traversing from one layer to the next\" the methodology hunts\n" +
			"(paper ladder: disk 94% -> RAID 78% -> OST stack 62% -> client 84%; the RAID transition\n" +
			"reproduces as the parity-overhead rung, the client rung reflects the write-back ack)\n",
		[]sweep.Metric{{Name: "worst_layer_eff", Value: worst}}}
}

// Hero is the end-to-end showcase: the full Titan torus (9,600 Gemini
// nodes, 74 routers) feeding a 1/6-scale namespace (3 SSUs, 168 OSTs,
// 1,680 drives) built at seed through FGR, 512 aggregated clients
// writing 1 MiB stonewall. Headline: the namespace extrapolation in
// GB/s, against the paper's ~320 GB/s (§V-C).
func Hero(seed uint64) Result {
	c := center.New(center.Config{Scale: 6, Namespaces: 1, UseFabric: true,
		RouteMode: netsim.RouteFGR, Seed: seed})
	agg := c.RunIOR(0, workload.IORConfig{
		Clients: 512, TransferSize: 1 << 20, StoneWall: 500 * sim.Millisecond,
	}).AggregateBps
	rep := c.Fabric.Congestion(c.Eng.Now())
	return Result{"HERO full-fabric run (Titan torus -> FGR -> 1/6-scale namespace)", fmt.Sprintf(
		"512 clients, 1 MiB stonewall: %.1f GB/s at 1/6 scale -> %.0f GB/s namespace extrapolation\n"+
			"(paper: 320 GB/s per namespace pre-upgrade); hottest link %.2f (%s), core bytes %.1e (FGR keeps the core dark)\n",
		agg/1e9, agg*6/1e9, rep.MaxUtilization, rep.HotLink, rep.CoreBytes), []sweep.Metric{{Name: "namespace_gbps", Value: agg * 6 / 1e9}}}
}
