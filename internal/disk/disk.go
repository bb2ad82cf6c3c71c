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
	"spiderfs/internal/stats"
)

// Config describes a disk product.
type Config struct {
	Name     string
	Capacity int64 // bytes

	// Seek model: seekTime(d) = SeekBase + SeekFull*sqrt(d/Capacity),
	// where d is the LBA distance in bytes. A uniformly random pair of
	// positions yields an expected seek of SeekBase + 0.533*SeekFull.
	SeekBase sim.Time
	SeekFull sim.Time

	RPM float64 // spindle speed, for rotational latency

	// PeakMBps is the outer-zone sustained transfer rate in MB/s
	// (decimal megabytes, as vendors quote it). ZoneSlowdown is the
	// fractional rate loss at the innermost zone (0.3 = inner tracks run
	// at 70% of outer).
	PeakMBps     float64
	ZoneSlowdown float64

	// CmdOverhead is fixed per-command processing time.
	CmdOverhead sim.Time
}

// NLSAS2TB returns the 2 TB near-line SAS drive used to build Spider II
// (20,160 of them in the real system).
func NLSAS2TB() Config {
	return Config{
		Name:         "nl-sas-2tb",
		Capacity:     2_000_000_000_000,
		SeekBase:     1 * sim.Millisecond,
		SeekFull:     26 * sim.Millisecond,
		RPM:          7200,
		PeakMBps:     140,
		ZoneSlowdown: 0.35,
		CmdOverhead:  300 * sim.Microsecond,
	}
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
// defect in range. A Disk must not be copied once created.
type Disk struct {
	ID     int
	cfg    Config
	health Health
	eng    *sim.Engine
	srv    sim.Server
	src    rng.Source

	lastEnd int64 // LBA following the previous command, for sequential detection

	// Latent media-error model (faults.go). faultSrc is a dedicated
	// stream, drawn from only while armed: disarmed disks draw nothing,
	// so enabling injection on one disk never perturbs another model's
	// randomness.
	faults   FaultConfig
	armed    bool
	faultSrc rng.Source
	// defects holds the corrupt sectors in ascending sector order;
	// loSector and hiSector are its first and last sectors, so a range
	// that misses them is rejected without reading the slice.
	defects            []defect
	loSector, hiSector int64

	// Tracer, when set, records a span per command plus the
	// seek/rotate/transfer/tail decomposition (spantrace plane).
	Tracer *spantrace.Tracer

	// Counters for the monitoring and QA layers.
	Ops      uint64
	Bytes    int64
	Latency  stats.Summary // per-command service latency in milliseconds, recorded at submit time
	SlowCmds uint64        // commands that took a tail excursion

	// Integrity counters (faults.go).
	InjectedUREs    uint64 // drive-detectable defects seeded
	InjectedSilent  uint64 // silent (bit-rot) defects seeded
	RepairedSectors uint64 // defects healed by overwrites and repairs
}

// New creates a disk with the given personality. The disk takes over
// src's stream: it copies the state, so the caller must not draw from
// src again.
func New(eng *sim.Engine, id int, cfg Config, health Health, src *rng.Source) *Disk {
	d := &Disk{
		ID:     id,
		cfg:    cfg,
		health: health,
		eng:    eng,
		src:    *src,
	}
	d.srv.Init(eng, 1)
	return d
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
	d.Latency = stats.Summary{}
	d.SlowCmds = 0
}

// Utilization returns the drive's busy fraction since t=0.
func (d *Disk) Utilization() float64 { return d.srv.Utilization() }

// rate returns the transfer rate in bytes/ns at byte position lba.
func (d *Disk) rate(lba int64) float64 {
	frac := float64(lba) / float64(d.cfg.Capacity)
	if frac > 1 {
		frac = 1
	}
	mbps := d.cfg.PeakMBps * (1 - d.cfg.ZoneSlowdown*frac) * d.health.SpeedFactor
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
	p := parts{overhead: d.cfg.CmdOverhead}
	if op.LBA != d.lastEnd {
		dist := op.LBA - d.lastEnd
		if dist < 0 {
			dist = -dist
		}
		frac := math.Sqrt(float64(dist) / float64(d.cfg.Capacity))
		p.seek = d.cfg.SeekBase + sim.Time(float64(d.cfg.SeekFull)*frac)
		// Rotational latency: uniform in [0, one revolution).
		rev := sim.Time(60 * float64(sim.Second) / d.cfg.RPM)
		p.rotate = sim.Time(d.src.Float64() * float64(rev))
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
// carries it as data, so it allocates nothing. Latency is recorded here
// rather than at completion: the disk is a single-slot FIFO, so
// commands complete in submission order and a drained run's Summary is
// the same either way. Only a sampled traced command keeps a closure,
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
	d.Latency.Add(st.Millis())
	op2 := "disk-read"
	if op.Write {
		op2 = "disk-write"
	}
	sp := d.Tracer.Begin(spantrace.Disk, op2, d.Tracer.Cur(), op.Size)
	if sp == 0 {
		d.srv.Submit(st, done)
		return
	}
	submitted := d.eng.Now()
	d.srv.Submit(st, func() {
		// Decompose retroactively: the actuator started this command
		// total ns before it completed; everything earlier was
		// queueing behind other commands.
		end := d.eng.Now()
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

// PopulationSpec controls the statistical spread of drive personalities
// across a manufacturing batch, mirroring what OLCF observed: most drives
// within a few percent of spec, a slow tail several percent below it, and
// a smaller set of drives with latency excursions. Roughly 10% of Spider
// II's initial 20,160 drives were eventually replaced for being slow
// (~1,500 at block level, ~500 more at file system level).
type PopulationSpec struct {
	SpeedSigma  float64 // stddev of the healthy speed factor around 1.0
	SlowFrac    float64 // fraction of drives with a depressed speed factor
	SlowFactor  float64 // mean speed factor of slow drives
	SlowSigma   float64 // spread of slow drives' factors
	WeakFrac    float64 // fraction of drives with elevated tail latency
	WeakTailPr  float64 // per-command excursion probability for weak drives
	WeakTailDur sim.Time
}

// DefaultPopulation mirrors the Spider II acceptance experience.
func DefaultPopulation() PopulationSpec {
	return PopulationSpec{
		SpeedSigma:  0.015,
		SlowFrac:    0.075,
		SlowFactor:  0.82,
		SlowSigma:   0.05,
		WeakFrac:    0.025,
		WeakTailPr:  0.02,
		WeakTailDur: 60 * sim.Millisecond,
	}
}

// NewPopulation manufactures n drives with personalities drawn from spec.
func NewPopulation(eng *sim.Engine, n int, cfg Config, spec PopulationSpec, src *rng.Source) []*Disk {
	disks := make([]*Disk, n)
	for i := 0; i < n; i++ {
		h := Nominal()
		h.SpeedFactor = src.TruncNormal(1.0, spec.SpeedSigma, 0.9, 1.08)
		switch {
		case src.Bool(spec.SlowFrac):
			h.SpeedFactor = src.TruncNormal(spec.SlowFactor, spec.SlowSigma, 0.6, 0.95)
		case src.Bool(spec.WeakFrac / (1 - spec.SlowFrac)):
			h.TailProb = spec.WeakTailPr
			h.TailScale = spec.WeakTailDur
		}
		disks[i] = New(eng, i, cfg, h, src.Split(fmt.Sprintf("disk-%d", i)))
	}
	return disks
}
