// Package disk models mechanical hard drives at the fidelity the Spider
// deployment lessons require: seek + rotational + zoned transfer service
// times, unit-to-unit speed variability (the "slow disk" population of
// §V-A), and long-tail latency blips from drive-internal recovery.
//
// The model is calibrated so a nominal near-line SAS drive delivers
// ~20-25% of its peak sequential bandwidth under random 1 MiB I/O, the
// rule of thumb the paper used to derive Spider II's 240 GB/s random-I/O
// requirement from its 1 TB/s sequential requirement.
package disk

import (
	"fmt"
	"math"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
)

// Config describes a disk product. Capacity is its one knob: the unit
// tests and the small center build 2 GiB drives to keep stripe counts
// small. The mechanics are those of the Spider II drive, below.
type Config struct {
	Capacity int64 // bytes
}

// The mechanics of the 2 TB near-line SAS drive. Seek model:
// seekTime(d) = seekBase + seekFull*sqrt(d/Capacity), where d is the
// LBA distance in bytes. A uniformly random pair of positions yields an
// expected seek of seekBase + 0.533*seekFull.
const (
	seekBase = 1 * sim.Millisecond
	seekFull = 26 * sim.Millisecond

	// rpm is the spindle speed, for rotational latency; revolution is
	// one turn, truncated to the nanosecond.
	rpm        = 7200
	revolution = 60 * sim.Second / rpm

	// peakMBps is the outer-zone sustained transfer rate in MB/s
	// (decimal megabytes, as vendors quote it). zoneSlowdown is the
	// fractional rate loss at the innermost zone (0.35 = inner tracks
	// run at 65% of outer).
	peakMBps     = 140.0
	zoneSlowdown = 0.35

	// cmdOverhead is fixed per-command processing time.
	cmdOverhead = 300 * sim.Microsecond
)

// NLSAS2TB returns the 2 TB near-line SAS drive used to build Spider II
// (20,160 of them in the real system).
func NLSAS2TB() Config {
	return Config{Capacity: 2_000_000_000_000}
}

// Op is a single disk command.
type Op struct {
	Write bool
	LBA   int64 // byte offset on the platter
	Size  int64 // bytes
}

// Health captures a drive's hidden performance personality. Healthy
// drives have SpeedFactor ~1; "slow" drives (functional, no errors, just
// below spec) have a lower factor; "weak" drives add frequent long-tail
// latency excursions. The QA tooling must *detect* these from service
// latencies, as the OLCF did — the fields are exported for test oracles
// and fault injection only.
type Health struct {
	SpeedFactor float64 // multiplies transfer rate (1.0 nominal)
	TailProb    float64 // probability a command takes a latency excursion
	TailScale   sim.Time
}

// Nominal returns a healthy personality: firmware recovery excursions
// happen, but only a few times per hundred thousand commands.
func Nominal() Health {
	return Health{SpeedFactor: 1.0, TailProb: 2e-5, TailScale: 30 * sim.Millisecond}
}

// Disk is a single simulated drive attached to an engine. All commands
// are serviced FIFO with a single actuator (queue depth shaping happens
// above, in the RAID/OST layers).
//
// A Disk is one contiguous record: its server and both rng streams are
// held by value and the defect bounds sit next to them, so a command
// (a scrub read, above all) touches no other object until it finds a
// defect in range. A full center holds 20,160 of them, so the record
// keeps only what a reader needs (DESIGN.md "Drive record"): the server
// holds the engine, and of the latency statistics only the mean that
// the QA tooling reads. A Disk must not be copied once created.
type Disk struct {
	cfg    Config
	health Health
	srv    sim.Server
	src    rng.Source

	lastEnd int64 // LBA following the previous command, for sequential detection

	// Latent media-error model (faults.go). faultSrc is a dedicated
	// stream, drawn from only while faults holds a non-zero rate:
	// disarmed disks draw nothing, so enabling injection on one disk
	// never perturbs another model's randomness. faultPois is its
	// Poisson memo.
	faults    FaultConfig
	faultSrc  rng.Source
	faultPois rng.Poisson
	// defects holds the corrupt sectors in ascending sector order;
	// loSector and hiSector are its first and last sectors, so a range
	// that misses them is rejected without reading the slice.
	defects            []defect
	loSector, hiSector int64

	// Tracer, when set, records a span per command plus the
	// seek/rotate/transfer/tail decomposition (spantrace plane).
	Tracer *spantrace.Tracer

	// Counters for the monitoring and QA layers.
	Ops   uint64
	Bytes int64
	// latMean is the mean per-command service latency in milliseconds
	// over the Ops commands, recorded at submit time by Welford's
	// update (MeanLatency).
	latMean  float64
	SlowCmds uint32 // commands that took a tail excursion

	// Integrity counters (faults.go).
	InjectedUREs    uint32 // drive-detectable defects seeded
	InjectedSilent  uint32 // silent (bit-rot) defects seeded
	RepairedSectors uint32 // defects healed by overwrites and repairs
}

// New creates a single disk with the given personality, such as a
// replacement drive; NewPopulation builds a batch in one slab. The disk
// takes over src's stream: it copies the state, so the caller must not
// draw from src again. The second argument, an id, is not kept: nothing
// reads it.
func New(eng *sim.Engine, _ int, cfg Config, health Health, src *rng.Source) *Disk {
	d := new(Disk)
	d.init(eng, cfg, health, *src)
	return d
}

// init readies a zero Disk in place, wherever it is held.
func (d *Disk) init(eng *sim.Engine, cfg Config, health Health, src rng.Source) {
	d.cfg, d.health, d.src = cfg, health, src
	d.srv.Init(eng, 1)
}

// Config returns the disk's product configuration.
func (d *Disk) Config() Config { return d.cfg }

// Health returns the drive personality (test/fault-injection use).
//
//simlint:allow test-only-export accessor the tests clone a drive personality with
func (d *Disk) Health() Health { return d.health }

// SetHealth replaces the drive personality, modelling a disk swap or a
// firmware update.
func (d *Disk) SetHealth(h Health) { d.health = h }

// ResetStats clears the accumulated latency and throughput counters, as
// after a drive swap (the monitoring history belongs to the old drive).
func (d *Disk) ResetStats() {
	d.Ops = 0
	d.Bytes = 0
	d.latMean = 0
	d.SlowCmds = 0
}

// MeanLatency returns the mean per-command service latency in
// milliseconds since the drive was built or its stats were reset, 0
// before the first command. It is the mean a stats.Summary fed every
// command's service time would hold, to the last bit.
func (d *Disk) MeanLatency() float64 { return d.latMean }

// Utilization returns the drive's busy fraction since t=0.
func (d *Disk) Utilization() float64 { return d.srv.Utilization() }

// rate returns the transfer rate in bytes/ns at byte position lba.
func (d *Disk) rate(lba int64) float64 {
	frac := float64(lba) / float64(d.cfg.Capacity)
	if frac > 1 {
		frac = 1
	}
	mbps := peakMBps * (1 - zoneSlowdown*frac) * d.health.SpeedFactor
	return mbps * 1e6 / float64(sim.Second) // bytes per ns
}

// parts is the service-time decomposition of one command. The rng
// draws happen exactly once, in serviceParts, whether or not tracing
// is on — the decomposition exists so spantrace can attribute the
// mechanics without disturbing the stream.
type parts struct {
	overhead, seek, rotate, transfer, tail sim.Time
}

func (p parts) total() sim.Time {
	return p.overhead + p.seek + p.rotate + p.transfer + p.tail
}

func (d *Disk) serviceParts(op Op) parts {
	p := parts{overhead: cmdOverhead}
	if op.LBA != d.lastEnd {
		dist := op.LBA - d.lastEnd
		if dist < 0 {
			dist = -dist
		}
		frac := math.Sqrt(float64(dist) / float64(d.cfg.Capacity))
		p.seek = seekBase + sim.Time(float64(seekFull)*frac)
		// Rotational latency: uniform in [0, one revolution).
		p.rotate = sim.Time(d.src.Float64() * float64(revolution))
	}
	p.transfer = sim.Time(float64(op.Size) / d.rate(op.LBA))
	if d.src.Bool(d.health.TailProb) {
		p.tail = sim.Time(d.src.Exp(1) * float64(d.health.TailScale))
		d.SlowCmds++
	}
	return p
}

// ServiceTime computes the service time of op from the current head
// position without executing it. Exposed for analytic calibration.
// Draws from the disk's rng stream like a real command would.
//
//simlint:allow test-only-export analytic oracle the zoned-rate tests check the service model with
func (d *Disk) ServiceTime(op Op) sim.Time {
	return d.serviceParts(op).total()
}

// Submit queues op and calls done (may be nil) at completion.
//
// An untraced command hands done straight to the server, whose event
// carries it as data, so it allocates nothing. The latency mean is
// updated here rather than at completion: the disk is a single-slot
// FIFO, so commands complete in submission order and a drained run's
// mean is the same either way. Only a sampled traced command keeps a closure,
// to decompose its span once it completes.
func (d *Disk) Submit(op Op, done func()) {
	if op.Size <= 0 || op.LBA < 0 || op.LBA+op.Size > d.cfg.Capacity {
		panic(fmt.Sprintf("disk: invalid op lba=%d size=%d cap=%d", op.LBA, op.Size, d.cfg.Capacity)) //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	d.applyFaults(op)
	pts := d.serviceParts(op)
	st := pts.total()
	d.lastEnd = op.LBA + op.Size
	d.Ops++
	d.Bytes += op.Size
	d.latMean += (st.Millis() - d.latMean) / float64(d.Ops)
	op2 := "disk-read"
	if op.Write {
		op2 = "disk-write"
	}
	sp := d.Tracer.Begin(spantrace.Disk, op2, d.Tracer.Cur(), op.Size)
	if sp == 0 {
		d.srv.Submit(st, done)
		return
	}
	eng := d.srv.Engine()
	submitted := eng.Now()
	d.srv.Submit(st, func() {
		// Decompose retroactively: the actuator started this command
		// total ns before it completed; everything earlier was
		// queueing behind other commands.
		end := eng.Now()
		at := end - st
		if at > submitted {
			d.Tracer.Range(spantrace.Disk, "queue", sp, submitted, at, 0)
		}
		for _, ph := range [...]struct {
			op  string
			dur sim.Time
		}{
			{"cmd", pts.overhead},
			{"seek", pts.seek},
			{"rotate", pts.rotate},
			{"transfer", pts.transfer},
			{"tail", pts.tail},
		} {
			if ph.dur > 0 {
				d.Tracer.Range(spantrace.Disk, ph.op, sp, at, at+ph.dur, 0)
				at += ph.dur
			}
		}
		d.Tracer.End(sp)
		if done != nil {
			done()
		}
	})
}

// The statistical spread of drive personalities across a
// manufacturing batch, mirroring the Spider II acceptance experience:
// most drives within a few percent of spec, a slow tail several percent
// below it, and a smaller set of drives with latency excursions. Roughly
// 10% of Spider II's initial 20,160 drives were eventually replaced for
// being slow (~1,500 at block level, ~500 more at file system level).
const (
	speedSigma  = 0.015 // stddev of the healthy speed factor around 1.0
	slowFrac    = 0.075 // fraction of drives with a depressed speed factor
	slowFactor  = 0.82  // mean speed factor of slow drives
	slowSigma   = 0.05  // spread of slow drives' factors
	weakFrac    = 0.025 // fraction of drives with elevated tail latency
	weakTailPr  = 0.02  // per-command excursion probability for weak drives
	weakTailDur = 60 * sim.Millisecond
)

// NewPopulation manufactures n drives with personalities drawn from the
// Spider II batch spread. The drives live in one slab, and drive i's
// stream is src.Split("disk-<i>"), so a population costs the same two
// allocations at any n. A pointer to any drive keeps the whole slab
// alive.
func NewPopulation(eng *sim.Engine, n int, cfg Config, src *rng.Source) []*Disk {
	slab := make([]Disk, n)
	disks := make([]*Disk, n)
	for i := range slab {
		h := Nominal()
		h.SpeedFactor = src.TruncNormal(1.0, speedSigma, 0.9, 1.08)
		switch {
		case src.Bool(slowFrac):
			h.SpeedFactor = src.TruncNormal(slowFactor, slowSigma, 0.6, 0.95)
		case src.Bool(weakFrac / (1 - slowFrac)):
			h.TailProb = weakTailPr
			h.TailScale = weakTailDur
		}
		slab[i].init(eng, cfg, h, src.SplitIndex("disk-", i))
		disks[i] = &slab[i]
	}
	return disks
}
