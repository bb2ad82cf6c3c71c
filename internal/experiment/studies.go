package experiment

import (
	"fmt"

	"spiderfs/internal/center"
	"spiderfs/internal/failure"
	"spiderfs/internal/lustre"
	"spiderfs/internal/procure"
	"spiderfs/internal/purge"
	"spiderfs/internal/qa"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/stats"
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
	return Result{"F3 IOR bandwidth vs transfer size (Fig. 3)", body, peak / 1e9}
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
	return Result{"F4 IOR bandwidth vs client count (Fig. 4)", body, plateau / 1e9}
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
		tr.WriteFraction(), 100*float64(small)/n, 100*float64(large)/n, fit.Alpha, fit.N),
		tr.WriteFraction()}
}

// E2 works the §III-A checkpoint sizing arithmetic and runs a miniature
// checkpoint on a small center at seed. Headline: the sequential
// requirement in TB/s.
func E2(seed uint64) Result {
	seq := procure.CheckpointBandwidth(600e12, 0.75, 6*sim.Minute)
	rnd := procure.RandomDerate(1e12, 0.24)
	c := center.New(center.Config{Small: true, Namespaces: 1, Seed: seed})
	res := workload.RunCheckpoint(c.Namespaces[0], workload.CheckpointConfig{
		Writers: 64, BytesPerRank: 16 << 20, TransferSize: 1 << 20,
	})
	return Result{"E2 checkpoint sizing (paper Sec. III-A)", fmt.Sprintf(
		"75%% of 600 TB in 6 min -> %.2f TB/s (paper: the 1 TB/s class requirement)\nrandom derate at 24%% -> %.0f GB/s (paper: 240 GB/s)\nsimulated miniature checkpoint: %.2f GB/s on 2/56-scale controllers\n",
		seq/1e12, rnd/1e9, res.AggregateBps/1e9), seq / 1e12}
}

// E3 runs the §V-A slow-disk elimination campaign on 32 RAID groups
// (fleet at seed, campaign at seed+1). Headline: the fraction of
// drives replaced.
func E3(seed uint64) Result {
	cfg := qa.DefaultElimination()
	cfg.BenchBytes = 32 << 20
	rep, drives := qa.SlowDiskCampaign(32, cfg, rng.New(seed), rng.New(seed+1))
	body := ""
	for _, r := range rep.Rounds {
		body += fmt.Sprintf("round %d: mean %.0f MB/s, spread %.1f%%, replaced %d\n",
			r.Index, r.MeanMBps, r.Spread*100, r.Replaced)
	}
	body += fmt.Sprintf("%v\n(paper: ~1,500 + ~500 of 20,160 drives replaced; 5%%->7.5%% envelope)\n", rep)
	return Result{"E3 slow-disk elimination (paper Sec. V-A)", body,
		float64(rep.TotalReplaced) / float64(drives)}
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
		{Name: "titan", MemBytes: 710e12, WorkflowShareBytes: 100e12},
		{Name: "analysis", MemBytes: 30e12, WorkflowShareBytes: 20e12},
		{Name: "viz", MemBytes: 20e12, WorkflowShareBytes: 10e12},
		{Name: "dtn", MemBytes: 10e12, WorkflowShareBytes: 5e12},
	}, procure.Spider2SSU(), 10e9)
	return Result{"E6 data-centric vs machine-exclusive (paper Secs. II, VII)", fmt.Sprintf(
		"workflow: data-centric %v vs exclusive %v (transfer %v, %d MiB moved)\nacquisition: %v\n",
		dc.Total, ex.Total, ex.TransferTime, ex.BytesMoved>>20, cmp),
		float64(ex.Total) / float64(dc.Total)}
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
		s1.GroupsFailed, s1.JournalLost, rate, s2.GroupsFailed), rate}
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
		one.OpsPerSec, one.Utilization, two.OpsPerSec, two.Utilization),
		two.OpsPerSec / one.OpsPerSec}
}

// E13 runs 25 days of production (20 files of 8 MiB a day) under the
// §IV-C 14-day purge policy on a namespace at seed. Headline: the files
// resident at the end.
func E13(seed uint64) Result {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	p := purge.New(fs, purge.Policy{MaxAge: 14 * sim.Day, Interval: sim.Day, Concurrency: 16})
	p.Start()
	day := 0
	var producer func()
	producer = func() {
		if day >= 25 {
			return
		}
		tools.Populate(fs, tools.TreeSpec{Dirs: 1, FilesPerDir: 20, FileSize: 8 << 20,
			Root: fmt.Sprintf("day%02d", day)})
		day++
		eng.After(sim.Day, producer)
	}
	producer()
	eng.RunUntil(25 * sim.Day)
	p.Stop()
	eng.Run()
	return Result{"E13 purge policy (paper Sec. IV-C)", fmt.Sprintf(
		"25 days at 20 files/day under the 14-day policy: %d sweeps, %d deleted, %d resident (~15 days of production)\n",
		len(p.Sweeps), p.Deleted, fs.NumFiles), float64(fs.NumFiles)}
}

// A2 measures the application stall across an OSS failover without and
// with imperative recovery (§IV-D), both on a namespace at seed.
// Headline: how many times shorter the stall is with it.
func A2(seed uint64) Result {
	without, with := recoveryStall(seed, false), recoveryStall(seed, true)
	return Result{"A2 ablation: imperative recovery (paper Sec. IV-D)", fmt.Sprintf(
		"application stall across an OSS failover: %v without IR -> %v with IR (%.1fx shorter)\n",
		without, with, float64(without)/float64(with)),
		float64(without) / float64(with)}
}

func recoveryStall(seed uint64, imperative bool) sim.Time {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	var file *lustre.File
	fs.CreateOn("app/out", []int{0}, func(f *lustre.File) { file = f })
	eng.Run()
	_ = lustre.FailOSS(fs, 0, lustre.DefaultRecovery(imperative), nil) // OSS 0 of a fresh namespace is up
	start := eng.Now()
	var doneAt sim.Time
	client.WriteStream(file, 8<<20, 1<<20, func(int64) { doneAt = eng.Now() })
	eng.Run()
	return doneAt - start
}
