package integrity

import (
	"fmt"

	"spiderfs/internal/disk"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/sweep"
)

// E19 scenario: one RAID-6 group under a foreground reader, rate-driven
// media wear, a scripted bit-rot storm, and a mid-run disk failure with
// rebuild — with the scrub pass interval as the experiment's axis. Off
// (0) shows the exposure the paper warns about: silent corruption
// served to readers, and rebuilds tripping over latent errors. The
// default interval must drive undetected corrupt reads to zero.

// ScenarioConfig parameterizes one E19 replica.
type ScenarioConfig struct {
	Seed     uint64
	Duration sim.Time

	// Array under test: Geometry over DiskCapacity members (small, so
	// replicas stay cheap in event count).
	DiskCapacity int64
	Geometry     raid.GroupConfig
	Verify       raid.VerifyPolicy

	// Rate-driven media-error injection, armed on every member.
	Faults disk.FaultConfig
	// Scripted bit-rot storm: StormDefects silent sectors sprayed
	// uniformly across the members at StormAt.
	StormAt      sim.Time
	StormDefects int

	// Foreground reader: one ReadSize read at a random stripe-aligned
	// offset every ReadEvery.
	ReadEvery sim.Time
	ReadSize  int64

	// Mid-run member failure and rebuild (0 FailAt disables).
	FailAt       sim.Time
	ReplaceAfter sim.Time
	RebuildChunk int64
	RebuildPause sim.Time

	// Scrub throttle; ScrubEvery is the pass interval and the E19 axis
	// (0 disables scrubbing entirely).
	ScrubEvery sim.Time
	ScrubBatch int64
	ScrubPause sim.Time
}

// DefaultScenario returns the E19 baseline: a 64 MiB-per-member 8+2
// group read once a minute for four hours, a 40-sector bit-rot storm at
// t=30 min, a member failure at t=2 h, and the default scrub throttle.
func DefaultScenario() ScenarioConfig {
	return ScenarioConfig{
		Seed:         1,
		Duration:     4 * sim.Hour,
		DiskCapacity: 64 << 20,
		Geometry:     raid.Spider2Group(),
		Verify:       raid.VerifyOnSuspect,
		Faults:       disk.FaultConfig{UREPerGBRead: 0.02},
		// Offset from the reader's minute cadence: the storm lands 7 s
		// after a read, so the scrubber gets a full interval+pass of
		// lead time before the next read can touch fresh corruption.
		StormAt:      30*sim.Minute + 7*sim.Second,
		StormDefects: 40,
		ReadEvery:    sim.Minute,
		ReadSize:     1 << 20,
		FailAt:       2 * sim.Hour,
		ReplaceAfter: 5 * sim.Minute,
		RebuildChunk: 64,
		RebuildPause: 2 * sim.Second,
		ScrubEvery:   DefaultScrubInterval,
		ScrubBatch:   256,
		ScrubPause:   500 * sim.Millisecond,
	}
}

// ScenarioResult is one replica's outcome.
type ScenarioResult struct {
	Reads           uint64
	EIOReads        uint64
	UndetectedReads uint64
	RepairedChunks  uint64
	ScrubRepairs    uint64
	UREsDetected    uint64
	Mismatches      uint64
	LostStripes     int64
	ScrubPasses     int
	ScrubbedStripes int64
	RebuildHits     uint64   // latent errors hit while the rebuild ran
	RebuildWindow   sim.Time // failure-to-rebuilt exposure window
	MeanReadMs      float64  // foreground read latency (scrub overhead shows here)
}

// RunScenario executes one E19 replica. Two runs of the same config are
// bit-identical; all randomness comes from named splits of cfg.Seed.
func RunScenario(cfg ScenarioConfig) ScenarioResult {
	eng := sim.NewEngine()
	src := rng.New(cfg.Seed)
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = cfg.DiskCapacity
	members := make([]*disk.Disk, cfg.Geometry.Width())
	for i := range members {
		members[i] = disk.New(eng, i, dcfg, disk.Nominal(), src.Split(fmt.Sprintf("disk-%d", i)))
	}
	g := raid.NewGroup(eng, 0, cfg.Geometry, members)
	g.Verify = cfg.Verify
	g.RebuildChunk = cfg.RebuildChunk
	g.RebuildPause = cfg.RebuildPause
	if cfg.Faults.Enabled() {
		for i, d := range members {
			d.SetFaultInjection(cfg.Faults, src.Split(fmt.Sprintf("media-%d", i)))
		}
	}

	if cfg.StormDefects > 0 && cfg.StormAt > 0 {
		storm := src.Split("storm")
		eng.At(cfg.StormAt, func() {
			for i := 0; i < cfg.StormDefects; i++ {
				m := storm.Intn(cfg.Geometry.Width())
				g.Disks()[m].InjectError(storm.Int63n(cfg.DiskCapacity), disk.Silent)
			}
		})
	}

	var res ScenarioResult
	var latSum float64
	stop := false

	reader := src.Split("reader")
	stripes := g.Capacity() / cfg.Geometry.StripeDataSize()
	maxStart := stripes - (cfg.ReadSize+cfg.Geometry.StripeDataSize()-1)/cfg.Geometry.StripeDataSize()
	var tick func()
	tick = func() {
		if stop {
			return
		}
		off := reader.Int63n(maxStart+1) * cfg.Geometry.StripeDataSize()
		issued := eng.Now()
		g.ReadChecked(off, cfg.ReadSize, func(oc raid.ReadOutcome) {
			res.Reads++
			if oc.EIO {
				res.EIOReads++
			}
			latSum += (eng.Now() - issued).Millis()
		})
		eng.After(cfg.ReadEvery, tick)
	}
	eng.After(cfg.ReadEvery, tick)

	if cfg.FailAt > 0 {
		eng.At(cfg.FailAt, func() {
			if g.State() != raid.Healthy {
				return
			}
			g.FailDisk(2)
			eng.After(cfg.ReplaceAfter, func() {
				if g.State() == raid.Failed {
					return
				}
				repl := disk.New(eng, 1000, dcfg, disk.Nominal(), src.Split("repl"))
				if cfg.Faults.Enabled() {
					repl.SetFaultInjection(cfg.Faults, src.Split("media-repl"))
				}
				start := eng.Now()
				g.StartRebuild(2, repl, func() { res.RebuildWindow = eng.Now() - start })
			})
		})
	}

	var scr *Scrubber
	if cfg.ScrubEvery > 0 {
		scr = New(eng, g, Config{
			BatchStripes: cfg.ScrubBatch,
			BatchPause:   cfg.ScrubPause,
			PassInterval: cfg.ScrubEvery,
		})
		scr.Start()
	}

	eng.RunUntil(cfg.Duration)
	stop = true
	if scr != nil {
		scr.Stop()
	}
	eng.Run() // drain in-flight I/O and any unfinished rebuild

	res.UndetectedReads = g.UndetectedCorruptReads
	res.RepairedChunks = g.RepairedChunks
	res.ScrubRepairs = g.ScrubRepairs
	res.UREsDetected = g.UREsDetected
	res.Mismatches = g.ChecksumMismatches
	res.LostStripes = g.UnrecoverableStripes
	res.ScrubbedStripes = g.ScrubbedStripes
	res.RebuildHits = g.RebuildLatentHits
	if scr != nil {
		res.ScrubPasses = scr.Passes
	}
	if res.Reads > 0 {
		res.MeanReadMs = latSum / float64(res.Reads)
	}
	return res
}

// e19Replica returns a sweep body running the scenario with the given
// scrub pass interval (0 = scrubbing off), one fresh seed per replica.
func e19Replica(base ScenarioConfig, scrubEvery sim.Time) sweep.Body {
	return func(r *sweep.Rep) error {
		cfg := base
		cfg.Seed = r.Seed
		cfg.ScrubEvery = scrubEvery
		res := RunScenario(cfg)
		r.Record("reads", float64(res.Reads))
		r.Record("undetected_reads", float64(res.UndetectedReads))
		r.Record("repaired_chunks", float64(res.RepairedChunks))
		r.Record("scrub_repairs", float64(res.ScrubRepairs))
		r.Record("ures_detected", float64(res.UREsDetected))
		r.Record("mismatches", float64(res.Mismatches))
		r.Record("lost_stripes", float64(res.LostStripes))
		r.Record("rebuild_latent_hits", float64(res.RebuildHits))
		r.Record("rebuild_window_s", res.RebuildWindow.Seconds())
		r.Record("scrub_passes", float64(res.ScrubPasses))
		r.Record("mean_read_ms", res.MeanReadMs)
		r.Record("eio_reads", float64(res.EIOReads))
		return nil
	}
}
