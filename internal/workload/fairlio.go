package workload

import (
	"spiderfs/internal/disk"
	"spiderfs/internal/lustre"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

// FairLIOConfig parameterizes the block-level benchmark OLCF developed
// for the Spider II acquisition (§III-B): multiple in-flight requests
// against raw block devices at specific locations, bypassing file system
// caches, sweeping request size, queue depth, read/write mix, and
// sequential/random mode.
type FairLIOConfig struct {
	RequestSize int64
	QueueDepth  int
	WriteFrac   float64 // 1.0 = pure write
	Random      bool
	// RandomSpan restricts random offsets to the first fraction of the
	// device (0 or 1 = whole device). Used to compare against file
	// systems whose data occupies only part of the platters.
	RandomSpan float64
	Duration   sim.Time
}

// randomSpan bounds random offsets to frac of the addressable range.
func randomSpan(max int64, frac float64) int64 {
	if frac <= 0 || frac >= 1 {
		return max
	}
	s := int64(frac * float64(max))
	if s < 1 {
		s = 1
	}
	return s
}

// offsets returns the offset source cfg asks for on a target of the
// given capacity: uniform draws over the random span, or a sequential
// cursor that wraps to 0 at the end of the target.
func (cfg FairLIOConfig) offsets(capacity int64, src *rng.Source) func() int64 {
	if cfg.Random {
		span := randomSpan(capacity-cfg.RequestSize, cfg.RandomSpan)
		return func() int64 { return src.Int63n(span) }
	}
	var pos int64
	return func() int64 {
		if pos+cfg.RequestSize > capacity {
			pos = 0
		}
		off := pos
		pos += cfg.RequestSize
		return off
	}
}

func (cfg FairLIOConfig) loop() Loop {
	return Loop{Depth: cfg.QueueDepth, Size: cfg.RequestSize, Duration: cfg.Duration}
}

// RunFairLIODisk drives one raw disk for the configured duration. Each
// request draws its direction, then its LBA.
func RunFairLIODisk(eng *sim.Engine, d *disk.Disk, cfg FairLIOConfig, src *rng.Source) Result {
	next := cfg.offsets(d.Config().Capacity, src)
	return Drive(eng, func(n int64, done func()) {
		write := src.Bool(cfg.WriteFrac)
		d.Submit(disk.Op{Write: write, LBA: next(), Size: n}, done)
	}, cfg.loop())
}

// RunFairLIOGroup drives one RAID group (the unit OLCF benchmarked and
// binned during slow-disk elimination). Offsets address the LUN; each
// request draws its offset, then its direction.
func RunFairLIOGroup(eng *sim.Engine, g *raid.Group, cfg FairLIOConfig, src *rng.Source) Result {
	next := cfg.offsets(g.Capacity(), src)
	return Drive(eng, func(n int64, done func()) {
		off := next()
		if cfg.Random {
			// Align to the stripe for apples-to-apples random 1 MiB I/O.
			off -= off % cfg.RequestSize
		}
		if src.Bool(cfg.WriteFrac) {
			g.Write(off, n, done)
		} else {
			g.Read(off, n, done)
		}
	}, cfg.loop())
}

// ObdSurveyResult mirrors obdfilter-survey: object write/rewrite/read
// rates at the OST stack level (controller + RAID), excluding clients
// and the network — the file-system-side half of the acquisition suite.
type ObdSurveyResult struct {
	WriteMBps   float64
	RewriteMBps float64
	ReadMBps    float64
}

// RunObdSurvey measures streaming write, rewrite, and read of one
// object with threads depth-1 streams, each moving its share of total
// bytes per phase. Writes are synchronous (survey semantics: the ack
// means data reached disk); reads are sequential.
func RunObdSurvey(eng *sim.Engine, obj *lustre.Object, total, rpc int64, threads int) ObdSurveyResult {
	streams := make([]Loop, threads)
	for i := range streams {
		streams[i] = Loop{Depth: 1, Size: rpc, Budget: total / int64(threads)}
	}
	write := func(n int64, done func()) { obj.WriteSync(n, false, done) }
	read := func(n int64, done func()) { obj.Read(n, false, done) }
	return ObdSurveyResult{
		WriteMBps:   Drive(eng, write, streams...).MBps(),
		RewriteMBps: Drive(eng, write, streams...).MBps(),
		ReadMBps:    Drive(eng, read, streams...).MBps(),
	}
}
