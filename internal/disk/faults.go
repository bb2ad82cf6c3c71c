package disk

import "spiderfs/internal/rng"

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
// service-time streams of every other model are unperturbed. A disk is
// armed exactly when its FaultConfig is non-zero: disarming zeroes it,
// and a zero rate draws nothing.

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
	// SilentPerGBWritten injects silent defects into the extent just
	// written (weak writes, high-fly writes, bit rot seeded at write
	// time).
	SilentPerGBWritten float64
	// UREPerGBRead injects drive-detectable defects uniformly across the
	// platter per GB read — media wear, which is what makes long rebuilds
	// dangerous: the more you read, the more latent errors you grow.
	UREPerGBRead float64
}

// ScanResult summarizes the latent defects in a scanned extent.
type ScanResult struct {
	UREs   int // drive-detectable sectors
	Silent int // silently corrupt sectors
}

// defect is one latent-corrupt sector.
type defect struct {
	sector int64
	kind   CorruptKind
}

// SetFaultInjection arms (or, with a nil src, disarms) the media-error
// model. The stream must be dedicated to this disk — injection draws
// advance it on every command while armed. The disk copies src's
// state, so the caller must not draw from src again.
func (d *Disk) SetFaultInjection(fc FaultConfig, src *rng.Source) {
	if src == nil {
		d.faults = FaultConfig{}
		return
	}
	d.faults, d.faultSrc = fc, *src
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

// CorruptSectors returns the number of latent-corrupt sectors on the
// platter.
//
//simlint:allow test-only-export fault-injection accessor the raid scrub tests count planted defects with
func (d *Disk) CorruptSectors() int { return len(d.defects) }

// Scan reports the latent defects in [lba, lba+size) without performing
// any I/O or advancing any stream. The RAID layer's read-time verify
// and the scrubber are built on it.
func (d *Disk) Scan(lba, size int64) ScanResult {
	var sr ScanResult
	for _, df := range d.sectorsIn(lba, size) {
		if df.kind == URE {
			sr.UREs++
		} else {
			sr.Silent++
		}
	}
	return sr
}

// ScanChunks invokes fn once per chunk-aligned slot of [lba, lba+size)
// that holds a defect, in ascending LBA order, so scan-driven repair
// scheduling is deterministic. fn must not change the disk's defects.
func (d *Disk) ScanChunks(lba, size, chunk int64, fn func(chunkLBA int64, sr ScanResult)) {
	if chunk <= 0 {
		return
	}
	in := d.sectorsIn(lba, size)
	i := 0
	for i < len(in) {
		slot := (in[i].sector * SectorSize) / chunk * chunk
		var sr ScanResult
		for i < len(in) && (in[i].sector*SectorSize)/chunk*chunk == slot {
			if in[i].kind == URE {
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
	i, j := d.span(lba, size)
	if i == j {
		return 0
	}
	d.defects = append(d.defects[:i], d.defects[j:]...)
	d.setBounds()
	d.RepairedSectors += uint32(j - i)
	return j - i
}

// sectorsIn returns the defects intersecting [lba, lba+size), in
// ascending sector order. The result aliases the disk's index: it is
// valid until the next change to the defects.
func (d *Disk) sectorsIn(lba, size int64) []defect {
	i, j := d.span(lba, size)
	return d.defects[i:j]
}

// span returns the index range [i, j) of the defects intersecting
// [lba, lba+size). A range outside [loSector, hiSector] is answered
// from the bounds alone.
func (d *Disk) span(lba, size int64) (i, j int) {
	if len(d.defects) == 0 || size <= 0 {
		return 0, 0
	}
	lo, hi := lba/SectorSize, (lba+size-1)/SectorSize
	if hi < d.loSector || lo > d.hiSector {
		return 0, 0
	}
	i = firstAtOrAfter(d.defects, lo)
	return i, i + firstAtOrAfter(d.defects[i:], hi+1)
}

// firstAtOrAfter returns the index of the first defect in defs (sorted
// by sector) whose sector is at least sector, or len(defs).
func firstAtOrAfter(defs []defect, sector int64) int {
	lo, hi := 0, len(defs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if defs[mid].sector < sector {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// setBounds refreshes loSector and hiSector after a change.
func (d *Disk) setBounds() {
	if n := len(d.defects); n > 0 {
		d.loSector, d.hiSector = d.defects[0].sector, d.defects[n-1].sector
	}
}

func (d *Disk) mark(sector int64, kind CorruptKind) {
	i := firstAtOrAfter(d.defects, sector)
	if i < len(d.defects) && d.defects[i].sector == sector {
		if d.defects[i].kind == URE {
			return // drive-detectable beats silent; keep the stronger defect
		}
		d.defects[i].kind = kind
	} else {
		d.defects = append(d.defects, defect{})
		copy(d.defects[i+1:], d.defects[i:])
		d.defects[i] = defect{sector: sector, kind: kind}
		d.setBounds()
	}
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
	if op.Write && len(d.defects) > 0 {
		d.Repair(op.LBA, op.Size)
	}
	if d.faults == (FaultConfig{}) {
		return
	}
	gb := float64(op.Size) / 1e9
	if op.Write {
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
	n := d.faultPois.Draw(&d.faultSrc, lambda)
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
