package disk

import (
	"sort"
	"testing"
)

// refMedia is the map-based defect model the sorted index replaced,
// kept as the fuzzer's oracle: a map from corrupt sector to kind,
// sorted on every ranged query.
type refMedia struct {
	capacity                        int64
	media                           map[int64]CorruptKind
	ures, silent, repaired, touched uint64
}

func (r *refMedia) inject(lba int64, kind CorruptKind) {
	if lba < 0 || lba >= r.capacity {
		return
	}
	s := lba / SectorSize
	if prev, ok := r.media[s]; ok && prev == URE {
		return
	}
	r.media[s] = kind
	if kind == URE {
		r.ures++
	} else {
		r.silent++
	}
}

// sectorsIn returns the corrupt sectors intersecting [lba, lba+size),
// sorted ascending.
func (r *refMedia) sectorsIn(lba, size int64) []int64 {
	if len(r.media) == 0 || size <= 0 {
		return nil
	}
	lo, hi := lba/SectorSize, (lba+size-1)/SectorSize
	var out []int64
	for s := range r.media { // sorted below
		if s >= lo && s <= hi {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refMedia) scan(lba, size int64) ScanResult {
	var sr ScanResult
	for _, s := range r.sectorsIn(lba, size) {
		if r.media[s] == URE {
			sr.UREs++
		} else {
			sr.Silent++
		}
	}
	return sr
}

// chunkHit is one ScanChunks callback.
type chunkHit struct {
	lba int64
	sr  ScanResult
}

func (r *refMedia) scanChunks(lba, size, chunk int64) []chunkHit {
	if chunk <= 0 {
		return nil
	}
	var out []chunkHit
	sectors := r.sectorsIn(lba, size)
	for i := 0; i < len(sectors); {
		slot := (sectors[i] * SectorSize) / chunk * chunk
		var sr ScanResult
		for ; i < len(sectors) && (sectors[i]*SectorSize)/chunk*chunk == slot; i++ {
			if r.media[sectors[i]] == URE {
				sr.UREs++
			} else {
				sr.Silent++
			}
		}
		out = append(out, chunkHit{slot, sr})
	}
	return out
}

func (r *refMedia) repair(lba, size int64) int {
	sectors := r.sectorsIn(lba, size)
	for _, s := range sectors {
		delete(r.media, s)
	}
	r.repaired += uint64(len(sectors))
	return len(sectors)
}

// Media operations, one per opcode: each op is five bytes (opcode, two
// bytes of LBA, size, chunk) of the fuzz input.
const (
	mopInjectURE = iota
	mopInjectSilent
	mopRepair
	mopScan
	mopScanChunks
	numMediaOps
)

// mediaSectors is the fuzzed drive's size: small, so injections collide
// and ranges straddle defects.
const mediaSectors = 256

// runMediaOps replays ops on a disk and on refMedia and fails on the
// first difference in a return value, a callback sequence, a counter,
// or the index itself (sorted, unique, bounds cached).
func runMediaOps(t *testing.T, ops []byte) {
	_, d := testDisk(1)
	d.cfg.Capacity = mediaSectors * SectorSize
	ref := &refMedia{capacity: d.cfg.Capacity, media: map[int64]CorruptKind{}}
	for i := 0; i+4 < len(ops); i += 5 {
		n, op := i/5, ops[i]%numMediaOps
		// LBAs run from below zero to past the end, sizes from
		// non-positive to a quarter of the drive, chunks from 0 (no
		// slots) to 255 KiB in 1 KiB steps.
		lba := int64(int16(uint16(ops[i+1])<<8|uint16(ops[i+2]))) * 48
		size := int64(ops[i+3])*1024 - 4096
		chunk := int64(ops[i+4]) * 1024
		switch op {
		case mopInjectURE, mopInjectSilent:
			kind := CorruptKind(op - mopInjectURE)
			d.InjectError(lba, kind)
			ref.inject(lba, kind)
		case mopRepair:
			if got, want := d.Repair(lba, size), ref.repair(lba, size); got != want {
				t.Fatalf("op %d: Repair(%d, %d) = %d, want %d", n, lba, size, got, want)
			}
		case mopScan:
			if got, want := d.Scan(lba, size), ref.scan(lba, size); got != want {
				t.Fatalf("op %d: Scan(%d, %d) = %+v, want %+v", n, lba, size, got, want)
			}
		case mopScanChunks:
			var got []chunkHit
			d.ScanChunks(lba, size, chunk, func(at int64, sr ScanResult) { got = append(got, chunkHit{at, sr}) })
			want := ref.scanChunks(lba, size, chunk)
			if len(got) != len(want) {
				t.Fatalf("op %d: ScanChunks(%d, %d, %d) = %v, want %v", n, lba, size, chunk, got, want)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("op %d: ScanChunks(%d, %d, %d) = %v, want %v", n, lba, size, chunk, got, want)
				}
			}
		}
		if d.InjectedUREs != ref.ures || d.InjectedSilent != ref.silent || d.RepairedSectors != ref.repaired {
			t.Fatalf("op %d: counters %d/%d/%d, want %d/%d/%d", n,
				d.InjectedUREs, d.InjectedSilent, d.RepairedSectors, ref.ures, ref.silent, ref.repaired)
		}
		checkIndex(t, n, d, ref)
	}
}

// checkIndex compares the disk's defect index with the reference map.
func checkIndex(t *testing.T, n int, d *Disk, ref *refMedia) {
	if d.CorruptSectors() != len(ref.media) {
		t.Fatalf("op %d: %d corrupt sectors, want %d", n, d.CorruptSectors(), len(ref.media))
	}
	for k, df := range d.defects {
		if k > 0 && d.defects[k-1].sector >= df.sector {
			t.Fatalf("op %d: index out of order at %d: %v", n, k, d.defects)
		}
		if kind, ok := ref.media[df.sector]; !ok || kind != df.kind {
			t.Fatalf("op %d: sector %d is %v in the index, reference has %v (present %v)", n, df.sector, df.kind, kind, ok)
		}
	}
	if k := len(d.defects); k > 0 && (d.loSector != d.defects[0].sector || d.hiSector != d.defects[k-1].sector) {
		t.Fatalf("op %d: cached bounds [%d, %d], index spans [%d, %d]", n, d.loSector, d.hiSector, d.defects[0].sector, d.defects[k-1].sector)
	}
}

// FuzzMediaOps checks the sorted defect index against the map-based
// reference after arbitrary InjectError/Repair/Scan/ScanChunks
// sequences.
func FuzzMediaOps(f *testing.F) {
	f.Add([]byte{
		mopInjectURE, 0, 40, 8, 0,
		mopInjectSilent, 1, 0, 8, 0,
		mopInjectSilent, 0, 40, 8, 0, // silent never downgrades a URE
		mopInjectSilent, 0, 200, 8, 0,
		mopInjectURE, 0, 200, 8, 0, // URE upgrades silent
		mopScan, 0, 0, 255, 0,
		mopScanChunks, 0, 0, 255, 8,
		mopRepair, 0, 32, 12, 0,
		mopScanChunks, 255, 255, 255, 128,
		mopInjectURE, 127, 255, 4, 0, // past the end: ignored
		mopInjectURE, 255, 0, 4, 0, // negative: ignored
		mopRepair, 0, 0, 0, 0, // empty range
	})
	f.Add([]byte{
		mopInjectSilent, 0, 128, 0, 0,
		mopInjectSilent, 0, 129, 0, 0,
		mopInjectURE, 0, 130, 0, 0,
		mopScanChunks, 0, 120, 10, 4,
		mopRepair, 0, 129, 5, 0,
		mopScan, 0, 120, 10, 0,
	})
	f.Fuzz(runMediaOps)
}
