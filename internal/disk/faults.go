package disk

import (
	"sort"

	"spiderfs/internal/rng"
)

// Latent media-error model. The paper's scariest storage failure mode is
// the one nothing notices: a latent sector error sits on a platter until
// a rebuild — already running with parity margin spent — reads it. The
// model tracks corruption statistically (which sectors are bad and how a
// read of them behaves), never data bytes: the simulation needs the
// *detectability* of a defect, not its contents.
//
// Determinism contract: all injection draws come from a dedicated fault
// stream installed by SetFaultInjection. A disarmed disk (no stream, or
// all-zero rates) draws nothing and is bit-identical to a build without
// the fault model; an armed disk consumes only its own stream, so the
// service-time streams of every other model are unperturbed.

// CorruptKind classifies a latent media defect.
type CorruptKind uint8

const (
	// URE is a drive-detectable defect: reading the sector surfaces an
	// unrecoverable read error (the drive knows, and says so).
	URE CorruptKind = iota
	// Silent is bit rot: the drive returns corrupt data with no error.
	// Only checksum/parity verification above the drive can catch it.
	Silent
)

// SectorSize is the granularity latent defects are tracked at.
const SectorSize = 4096

// FaultConfig sets media-error injection rates. Rates are expected
// defects per decimal GB transferred; injected counts are Poisson.
type FaultConfig struct {
	// UREPerGBWritten and SilentPerGBWritten inject defects into the
	// extent just written (weak writes, high-fly writes, bit rot seeded
	// at write time).
	UREPerGBWritten    float64
	SilentPerGBWritten float64
	// UREPerGBRead injects drive-detectable defects uniformly across the
	// platter per GB read — media wear, which is what makes long rebuilds
	// dangerous: the more you read, the more latent errors you grow.
	UREPerGBRead float64
}

// Enabled reports whether any injection rate is non-zero.
func (fc FaultConfig) Enabled() bool {
	return fc.UREPerGBWritten > 0 || fc.SilentPerGBWritten > 0 || fc.UREPerGBRead > 0
}

// ScanResult summarizes the latent defects in a scanned extent.
type ScanResult struct {
	UREs   int // drive-detectable sectors
	Silent int // silently corrupt sectors
}

// SetFaultInjection arms (or, with a nil src, disarms) the media-error
// model. The stream must be dedicated to this disk — injection draws
// advance it on every command while armed.
func (d *Disk) SetFaultInjection(fc FaultConfig, src *rng.Source) {
	d.faults = fc
	d.faultSrc = src
}

// InjectError marks the sector containing lba corrupt. Scripted
// corruption storms and tests use it directly; rate-driven injection
// goes through SetFaultInjection.
func (d *Disk) InjectError(lba int64, kind CorruptKind) {
	if lba < 0 || lba >= d.cfg.Capacity {
		return
	}
	d.mark(lba/SectorSize, kind)
}

// TearWrite models a power-fault-interrupted write of [lba, lba+size):
// the sector at the torn boundary is left silently inconsistent (old
// head, new tail — checksums above will disagree, the drive will not).
func (d *Disk) TearWrite(lba, size int64) {
	if size <= 0 || lba < 0 || lba+size > d.cfg.Capacity {
		return
	}
	sectors := size / SectorSize
	if sectors < 1 {
		sectors = 1
	}
	boundary := sectors / 2
	if d.faultSrc != nil {
		boundary = d.faultSrc.Int63n(sectors)
	}
	d.mark(lba/SectorSize+boundary, Silent)
}

// CorruptSectors returns the number of latent-corrupt sectors on the
// platter.
func (d *Disk) CorruptSectors() int { return len(d.media) }

// Scan reports the latent defects in [lba, lba+size) without performing
// any I/O or advancing any stream. The RAID layer's read-time verify
// and the scrubber are built on it.
func (d *Disk) Scan(lba, size int64) ScanResult {
	var sr ScanResult
	if len(d.media) == 0 || size <= 0 {
		return sr
	}
	lo, hi := lba/SectorSize, (lba+size-1)/SectorSize
	for s, kind := range d.media { // order-independent: counting only
		if s < lo || s > hi {
			continue
		}
		if kind == URE {
			sr.UREs++
		} else {
			sr.Silent++
		}
	}
	return sr
}

// ScanChunks invokes fn once per chunk-aligned slot of [lba, lba+size)
// that holds a defect, in ascending LBA order — map iteration order
// never reaches the caller, so scan-driven repair scheduling stays
// deterministic.
func (d *Disk) ScanChunks(lba, size, chunk int64, fn func(chunkLBA int64, sr ScanResult)) {
	if len(d.media) == 0 || size <= 0 || chunk <= 0 {
		return
	}
	sectors := d.sectorsIn(lba, size)
	i := 0
	for i < len(sectors) {
		slot := (sectors[i] * SectorSize) / chunk * chunk
		var sr ScanResult
		for i < len(sectors) && (sectors[i]*SectorSize)/chunk*chunk == slot {
			if d.media[sectors[i]] == URE {
				sr.UREs++
			} else {
				sr.Silent++
			}
			i++
		}
		fn(slot, sr)
	}
}

// Repair clears the latent defects in [lba, lba+size) and returns the
// number of sectors healed. Writes heal implicitly (Submit calls this);
// the explicit form exists for tests and tooling.
func (d *Disk) Repair(lba, size int64) int {
	sectors := d.sectorsIn(lba, size)
	for _, s := range sectors {
		delete(d.media, s)
	}
	d.RepairedSectors += uint64(len(sectors))
	return len(sectors)
}

// sectorsIn returns the corrupt sector indices intersecting
// [lba, lba+size), sorted ascending.
func (d *Disk) sectorsIn(lba, size int64) []int64 {
	if len(d.media) == 0 || size <= 0 {
		return nil
	}
	lo, hi := lba/SectorSize, (lba+size-1)/SectorSize
	var out []int64
	for s := range d.media { // sorted below before anything acts on it
		if s >= lo && s <= hi {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (d *Disk) mark(sector int64, kind CorruptKind) {
	if d.media == nil {
		d.media = make(map[int64]CorruptKind)
	}
	if prev, ok := d.media[sector]; ok && prev == URE {
		return // drive-detectable beats silent; keep the stronger defect
	}
	d.media[sector] = kind
	if kind == URE {
		d.InjectedUREs++
	} else {
		d.InjectedSilent++
	}
}

// applyFaults runs the per-command side of the model: a write heals the
// extent it overwrites, then rate-driven injection may seed new defects.
// Draws happen only while armed with non-zero rates.
func (d *Disk) applyFaults(op Op) {
	if op.Write && len(d.media) > 0 {
		d.Repair(op.LBA, op.Size)
	}
	if d.faultSrc == nil {
		return
	}
	gb := float64(op.Size) / 1e9
	if op.Write {
		d.injectUniform(op.LBA, op.Size, d.faults.UREPerGBWritten*gb, URE)
		d.injectUniform(op.LBA, op.Size, d.faults.SilentPerGBWritten*gb, Silent)
	} else {
		d.injectUniform(0, d.cfg.Capacity, d.faults.UREPerGBRead*gb, URE)
	}
}

// injectUniform seeds Poisson(lambda) defects uniformly in
// [lba, lba+size).
func (d *Disk) injectUniform(lba, size int64, lambda float64, kind CorruptKind) {
	if lambda <= 0 {
		return
	}
	n := d.faultSrc.Poisson(lambda)
	if n == 0 {
		return
	}
	sectors := size / SectorSize
	if sectors < 1 {
		sectors = 1
	}
	base := lba / SectorSize
	for i := 0; i < n; i++ {
		d.mark(base+d.faultSrc.Int63n(sectors), kind)
	}
}
