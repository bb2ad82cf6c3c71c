package disk

import (
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

func testDisk(seed uint64) (*sim.Engine, *Disk) {
	eng := sim.NewEngine()
	cfg := NLSAS2TB()
	cfg.Capacity = 64 << 20
	return eng, New(eng, 0, cfg, Nominal(), rng.New(seed).Split("d"))
}

func TestInjectScanAndChunkOrder(t *testing.T) {
	_, d := testDisk(1)
	d.InjectError(10*SectorSize, URE)
	d.InjectError(300*SectorSize, Silent)
	d.InjectError(301*SectorSize, Silent)
	if got := d.Scan(0, d.Config().Capacity); got.UREs != 1 || got.Silent != 2 {
		t.Fatalf("full scan = %+v, want 1 URE + 2 silent", got)
	}
	if got := d.Scan(0, 64*SectorSize); got.UREs != 1 || got.Silent != 0 {
		t.Fatalf("partial scan = %+v, want the URE only", got)
	}
	chunk := int64(128 << 10) // 32 sectors
	var slots []int64
	d.ScanChunks(0, d.Config().Capacity, chunk, func(lba int64, sr ScanResult) {
		slots = append(slots, lba)
		if lba == 0 && sr.UREs != 1 {
			t.Fatalf("slot 0 = %+v, want the URE", sr)
		}
		if lba != 0 && sr.Silent != 2 {
			t.Fatalf("slot %d = %+v, want both silent sectors", lba, sr)
		}
	})
	want := []int64{0, 300 * SectorSize / chunk * chunk}
	if len(slots) != 2 || slots[0] != want[0] || slots[1] != want[1] {
		t.Fatalf("chunk slots = %v, want %v (ascending)", slots, want)
	}
}

func TestWriteHealsOverwrittenExtent(t *testing.T) {
	eng, d := testDisk(2)
	d.InjectError(4*SectorSize, Silent)
	d.InjectError(1000*SectorSize, URE)
	d.Submit(Op{Write: true, LBA: 0, Size: 64 * SectorSize}, nil)
	eng.Run()
	if d.CorruptSectors() != 1 {
		t.Fatalf("corrupt sectors after overwrite = %d, want 1 (the distant URE)", d.CorruptSectors())
	}
	if d.RepairedSectors != 1 {
		t.Fatalf("RepairedSectors = %d, want 1", d.RepairedSectors)
	}
	if got := d.Scan(1000*SectorSize, SectorSize); got.UREs != 1 {
		t.Fatalf("distant URE gone: %+v", got)
	}
}

// Rate-driven injection must be deterministic per (seed, op sequence)
// and must draw only from the dedicated fault stream: a disk armed with
// zero rates services commands bit-identically to a never-armed disk.
func TestFaultInjectionDeterminismAndIsolation(t *testing.T) {
	run := func(arm bool, rates FaultConfig) (*Disk, sim.Time) {
		eng, d := testDisk(7)
		if arm {
			d.SetFaultInjection(rates, rng.New(7).Split("faults"))
		}
		src := rng.New(9).Split("ops")
		for i := 0; i < 200; i++ {
			lba := src.Int63n(d.Config().Capacity - (1 << 20))
			d.Submit(Op{Write: i%2 == 0, LBA: lba, Size: 1 << 20}, nil)
		}
		eng.Run()
		return d, eng.Now()
	}

	hot := FaultConfig{SilentPerGBWritten: 40, UREPerGBRead: 40}
	a, _ := run(true, hot)
	b, _ := run(true, hot)
	if a.InjectedUREs == 0 || a.InjectedSilent == 0 {
		t.Fatalf("hot rates injected nothing: %d UREs, %d silent", a.InjectedUREs, a.InjectedSilent)
	}
	if a.InjectedUREs != b.InjectedUREs || a.InjectedSilent != b.InjectedSilent ||
		a.RepairedSectors != b.RepairedSectors || a.CorruptSectors() != b.CorruptSectors() {
		t.Fatalf("double run diverged: %+v vs %+v", a, b)
	}

	zero, tz := run(true, FaultConfig{})
	_, to := run(false, FaultConfig{})
	if tz != to {
		t.Fatalf("zero-rate armed disk perturbed service times: %v vs %v", tz, to)
	}
	if zero.InjectedUREs != 0 || zero.InjectedSilent != 0 {
		t.Fatalf("zero rates injected defects")
	}
}

// TestScanAllocationCeiling pins the defect index's read side: Scan and
// ScanChunks over a range with defects inside it and on both sides of
// it return a subslice of the index and allocate nothing.
func TestScanAllocationCeiling(t *testing.T) {
	_, d := testDisk(3)
	for _, s := range []int64{2, 40, 41, 70, 300, 9000} {
		d.InjectError(s*SectorSize, CorruptKind(s%2))
	}
	lba, size, chunk := int64(32*SectorSize), int64(256*SectorSize), int64(128<<10)
	var hits int
	fn := func(int64, ScanResult) { hits++ }
	var sr ScanResult
	perScan := testing.AllocsPerRun(1000, func() {
		sr = d.Scan(lba, size)
		d.ScanChunks(lba, size, chunk, fn)
	})
	if sr.UREs+sr.Silent != 3 {
		t.Fatalf("scan found %+v, want the 3 defects in range", sr)
	}
	if hits != 1001*2 { // sectors 40-41 share a chunk; 70 has its own
		t.Fatalf("%d chunk callbacks over 1001 scans, want %d", hits, 1001*2)
	}
	if perScan > 0 {
		t.Errorf("Scan+ScanChunks allocates %.2f, want 0", perScan)
	}
}
