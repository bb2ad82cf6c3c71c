package experiment

import (
	"fmt"

	"spiderfs/internal/disk"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

// DefaultScrubInterval is E19's default gap between scrub passes. It is
// deliberately tight relative to the scenario's read rate: at the
// default interval the scrubber must win the race against foreground
// reads for every freshly corrupted sector (zero undetected corrupt
// reads), which is the property the regression gate pins.
const DefaultScrubInterval = 30 * sim.Second

// E19 scenario: one RAID-6 group under a foreground reader, rate-driven
// media wear, a scripted bit-rot storm, and a mid-run disk failure with
// rebuild — with the scrub pass interval as the experiment's axis. Off
// (0) shows the exposure the paper warns about: silent corruption
// served to readers, and rebuilds tripping over latent errors. The
// default interval must drive undetected corrupt reads to zero.
//
// The E19 baseline: a 64 MiB-per-member 8+2 group read once a minute
// for four hours, a 40-sector bit-rot storm at t=30 min, a member
// failure at t=2 h with replace-and-rebuild, and the scrub throttle.
// Only the scrub pass interval varies between replicas.
const (
	e19Duration = 4 * sim.Hour
	// Members are small so replicas stay cheap in event count.
	e19DiskCapacity = 64 << 20

	// Scripted bit-rot storm: e19StormDefects silent sectors sprayed
	// uniformly across the members at e19StormAt. Offset from the
	// reader's minute cadence: the storm lands 7 s after a read, so the
	// scrubber gets a full interval+pass of lead time before the next
	// read can touch fresh corruption.
	e19StormAt      = 30*sim.Minute + 7*sim.Second
	e19StormDefects = 40

	// Foreground reader: one e19ReadSize read at a random stripe-aligned
	// offset every e19ReadEvery.
	e19ReadEvery = sim.Minute
	e19ReadSize  = 1 << 20

	// Mid-run member failure and rebuild.
	e19FailAt       = 2 * sim.Hour
	e19ReplaceAfter = 5 * sim.Minute
	e19RebuildChunk = 64
	e19RebuildPause = 2 * sim.Second

	// Scrub throttle; the pass interval is RunScenario's argument.
	e19ScrubBatch = 256
	e19ScrubPause = 500 * sim.Millisecond
)

// ScenarioResult is one E19 replica's outcome.
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
	RebuildHits     uint64   // latent errors hit while the rebuild ran
	RebuildWindow   sim.Time // failure-to-rebuilt exposure window
	MeanReadMs      float64  // foreground read latency (scrub overhead shows here)
}

// RunScenario executes one E19 replica with the given scrub pass
// interval (0 disables scrubbing). Two runs with the same arguments are
// bit-identical; all randomness comes from named splits of seed.
func RunScenario(seed uint64, scrubEvery sim.Time) ScenarioResult {
	eng := sim.NewEngine()
	src := rng.New(seed)
	geom := raid.Spider2Group()
	// Rate-driven media-error injection, armed on every member.
	faults := disk.FaultConfig{UREPerGBRead: 0.02}
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = e19DiskCapacity
	members := make([]*disk.Disk, geom.Width())
	for i := range members {
		members[i] = disk.New(eng, i, dcfg, disk.Nominal(), src.Split(fmt.Sprintf("disk-%d", i)))
	}
	g := raid.NewGroup(eng, 0, geom, members)
	g.RebuildChunk = e19RebuildChunk
	g.RebuildPause = e19RebuildPause
	for i, d := range members {
		d.SetFaultInjection(faults, src.Split(fmt.Sprintf("media-%d", i)))
	}

	storm := src.Split("storm")
	eng.At(e19StormAt, func() {
		for i := 0; i < e19StormDefects; i++ {
			m := storm.Intn(geom.Width())
			g.Disks()[m].InjectError(storm.Int63n(e19DiskCapacity), disk.Silent)
		}
	})

	var res ScenarioResult
	var latSum float64
	stop := false

	reader := src.Split("reader")
	stripes := g.Capacity() / geom.StripeDataSize()
	maxStart := stripes - (e19ReadSize+geom.StripeDataSize()-1)/geom.StripeDataSize()
	var tick func()
	tick = func() {
		if stop {
			return
		}
		off := reader.Int63n(maxStart+1) * geom.StripeDataSize()
		issued := eng.Now()
		g.ReadChecked(off, e19ReadSize, func(oc raid.ReadOutcome) {
			res.Reads++
			if oc.EIO {
				res.EIOReads++
			}
			latSum += (eng.Now() - issued).Millis()
		})
		eng.After(e19ReadEvery, tick)
	}
	eng.After(e19ReadEvery, tick)

	eng.At(e19FailAt, func() {
		if g.State() != raid.Healthy {
			return
		}
		g.FailDisk(2)
		eng.After(e19ReplaceAfter, func() {
			if g.State() == raid.Failed {
				return
			}
			repl := disk.New(eng, 1000, dcfg, disk.Nominal(), src.Split("repl"))
			repl.SetFaultInjection(faults, src.Split("media-repl"))
			start := eng.Now()
			g.StartRebuild(2, repl, func() { res.RebuildWindow = eng.Now() - start })
		})
	})

	var scr *raid.Scrubber
	if scrubEvery > 0 {
		scr = raid.NewScrubber(g, raid.ScrubConfig{
			BatchStripes: e19ScrubBatch,
			BatchPause:   e19ScrubPause,
			PassInterval: scrubEvery,
		})
		scr.Start()
	}

	eng.RunUntil(e19Duration)
	stop = true
	if scr != nil {
		scr.Stop()
	}
	eng.Run() // drain in-flight I/O and any unfinished rebuild

	res.UndetectedReads = g.UndetectedCorruptReads
	res.RepairedChunks = g.RepairedChunks
	res.UREsDetected = g.UREsDetected
	res.Mismatches = g.ChecksumMismatches
	res.LostStripes = g.UnrecoverableStripes
	res.RebuildHits = g.RebuildLatentHits
	if scr != nil {
		res.ScrubRepairs = uint64(scr.Repairs)
		res.ScrubPasses = scr.Passes
	}
	if res.Reads > 0 {
		res.MeanReadMs = latSum / float64(res.Reads)
	}
	return res
}
