package raid

import (
	"testing"
	"testing/quick"

	"spiderfs/internal/disk"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

func newTestGroup(t *testing.T, seed uint64) (*sim.Engine, *Group) {
	t.Helper()
	eng := sim.NewEngine()
	src := rng.New(seed)
	cfg := Spider2Group()
	members := make([]*disk.Disk, cfg.Width())
	for i := range members {
		members[i] = disk.New(eng, i, disk.NLSAS2TB(), disk.Nominal(), src.Split("d"))
	}
	return eng, NewGroup(eng, 0, cfg, members)
}

func TestGroupGeometry(t *testing.T) {
	cfg := Spider2Group()
	if cfg.StripeDataSize() != 1<<20 {
		t.Fatalf("stripe data size = %d, want 1 MiB", cfg.StripeDataSize())
	}
	if cfg.Width() != 10 {
		t.Fatalf("width = %d", cfg.Width())
	}
	_, g := newTestGroup(t, 1)
	// 2 TB disks, 128 KiB chunks -> capacity = 8 data disks * 2 TB,
	// rounded down to whole stripes.
	stripes := int64(2_000_000_000_000) / cfg.ChunkSize
	want := stripes * cfg.StripeDataSize()
	if g.Capacity() != want {
		t.Fatalf("capacity = %d, want %d", g.Capacity(), want)
	}
	if diff := int64(8)*2_000_000_000_000 - g.Capacity(); diff < 0 || diff > cfg.StripeDataSize()*8 {
		t.Fatalf("capacity rounding off by %d bytes", diff)
	}
}

// Property: parity rotation places each stripe's 8 data chunks and 2
// parity chunks on 10 distinct members.
func TestChunkPlacementProperty(t *testing.T) {
	_, g := newTestGroup(t, 2)
	f := func(stripeRaw uint32) bool {
		stripe := int64(stripeRaw)
		used := map[int]bool{}
		p0, p1 := g.parityLocations(stripe)
		used[p0] = true
		used[p1] = true
		if p0 == p1 {
			return false
		}
		for k := 0; k < g.cfg.DataDisks; k++ {
			m := g.chunkLocation(stripe, k)
			if used[m] {
				return false
			}
			used[m] = true
		}
		return len(used) == g.cfg.Width()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: parity location rotates across stripes (not always the same
// two disks), which is what spreads load.
func TestParityRotates(t *testing.T) {
	_, g := newTestGroup(t, 3)
	seen := map[int]bool{}
	for s := int64(0); s < 10; s++ {
		p0, _ := g.parityLocations(s)
		seen[p0] = true
	}
	if len(seen) != 10 {
		t.Fatalf("parity used only %d members over 10 stripes", len(seen))
	}
}

func TestFullStripeWriteClassification(t *testing.T) {
	eng, g := newTestGroup(t, 4)
	done := 0
	g.Write(0, g.cfg.StripeDataSize(), func() { done++ })
	eng.Run()
	if done != 1 {
		t.Fatal("write did not complete")
	}
	if g.FullStripeWrite != 1 || g.PartialWrite != 0 {
		t.Fatalf("full=%d partial=%d, want 1/0", g.FullStripeWrite, g.PartialWrite)
	}
}

func TestPartialWriteIsRMWAndSlower(t *testing.T) {
	eng, g := newTestGroup(t, 5)
	g.Write(0, 4096, nil)
	eng.Run()
	partialTime := eng.Now()
	if g.PartialWrite != 1 {
		t.Fatalf("partial=%d", g.PartialWrite)
	}

	eng2, g2 := newTestGroup(t, 5)
	g2.Write(0, g2.cfg.StripeDataSize(), nil)
	eng2.Run()
	fullTime := eng2.Now()

	// A 4 KiB partial write moves 256x less data but must not be much
	// cheaper than a full-stripe write: RMW costs a read pass + write
	// pass on data+parity members.
	if float64(partialTime) < 0.8*float64(fullTime) {
		t.Fatalf("partial RMW (%v) suspiciously cheaper than full stripe (%v)", partialTime, fullTime)
	}
}

// TestWriteAllocationCeiling pins the write path at a constant depth
// of eight writes in flight: a write, its ten member commands, its
// barrier and its completion allocate nothing, whether it covers a
// full stripe or, unaligned, two partial stripes by read-modify-write.
// The group reuses its write and RMW records, callbacks bound once.
func TestWriteAllocationCeiling(t *testing.T) {
	for _, tc := range []struct {
		name     string
		shift    int64 // offset of each write past its stripe boundary
		full, rw uint64
	}{
		{"full-stripe", 0, 1, 0},
		{"rmw", 128 << 10, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, g := newTestGroup(t, 8)
			sds := g.cfg.StripeDataSize()
			completed, next := 0, int64(0)
			done := func() { completed++ }
			write := func() {
				g.Write(next*sds+tc.shift, sds, done)
				next++
			}
			for i := 0; i < 8; i++ {
				write()
			}
			cycle := func() { // one write in, one completion out
				write()
				for want := completed + 1; completed < want && eng.Step(); {
				}
			}
			for i := 0; i < 64; i++ { // every queue and free list at size
				cycle()
			}
			full, partial := g.FullStripeWrite, g.PartialWrite
			perWrite := testing.AllocsPerRun(100, cycle)
			if g.FullStripeWrite-full != 101*tc.full || g.PartialWrite-partial != 101*tc.rw {
				t.Fatalf("101 writes made %d full-stripe and %d partial writes, want %d and %d",
					g.FullStripeWrite-full, g.PartialWrite-partial, 101*tc.full, 101*tc.rw)
			}
			if perWrite > 0 {
				t.Errorf("write at depth 8 allocates %.2f, want 0", perWrite)
			}
		})
	}
}

func TestMultiStripeWrite(t *testing.T) {
	eng, g := newTestGroup(t, 6)
	n := int64(4)
	g.Write(0, n*g.cfg.StripeDataSize(), nil)
	eng.Run()
	if g.FullStripeWrite != uint64(n) {
		t.Fatalf("full stripe writes = %d, want %d", g.FullStripeWrite, n)
	}
}

func TestReadCompletes(t *testing.T) {
	eng, g := newTestGroup(t, 7)
	done := false
	g.Read(0, 1<<20, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("read did not complete")
	}
	if g.BytesRead != 1<<20 {
		t.Fatalf("bytes read = %d", g.BytesRead)
	}
}

func TestDegradedReadFansOut(t *testing.T) {
	eng, g := newTestGroup(t, 8)
	if st := g.FailDisk(3); st != Degraded {
		t.Fatalf("state after 1 failure = %v", st)
	}
	g.Read(0, 1<<20, nil)
	eng.Run()
	if g.DegradedReads == 0 {
		t.Fatal("degraded read not recorded")
	}
}

func TestRAID6TwoFailuresSurvive(t *testing.T) {
	_, g := newTestGroup(t, 9)
	g.FailDisk(0)
	if st := g.FailDisk(5); st != Degraded {
		t.Fatalf("two failures should stay degraded, got %v", st)
	}
	if st := g.FailDisk(7); st != Failed {
		t.Fatalf("three failures should fail, got %v", st)
	}
	if g.LostStripes == 0 {
		t.Fatal("failed group should record lost stripes")
	}
}

func TestFailDiskIdempotent(t *testing.T) {
	_, g := newTestGroup(t, 10)
	g.FailDisk(1)
	g.FailDisk(1)
	g.FailDisk(1)
	if g.State() != Degraded {
		t.Fatalf("repeated failure of same disk should stay degraded, got %v", g.State())
	}
}

func TestRebuildRestoresHealth(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(11)
	cfg := Spider2Group()
	// Small "disks" so the rebuild is fast in event count.
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = 64 << 20
	members := make([]*disk.Disk, cfg.Width())
	for i := range members {
		members[i] = disk.New(eng, i, dcfg, disk.Nominal(), src.Split("d"))
	}
	g := NewGroup(eng, 0, cfg, members)
	g.FailDisk(2)
	repl := disk.New(eng, 99, dcfg, disk.Nominal(), src.Split("repl"))
	finished := false
	g.StartRebuild(2, repl, func() { finished = true })
	if g.State() != Rebuilding {
		t.Fatalf("state = %v, want rebuilding", g.State())
	}
	eng.Run()
	if !finished {
		t.Fatal("rebuild never completed")
	}
	if g.State() != Healthy {
		t.Fatalf("state after rebuild = %v", g.State())
	}
	if g.RebuildProgress() != 1 {
		t.Fatalf("progress = %f", g.RebuildProgress())
	}
}

func TestRebuildProgressAdvances(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(12)
	cfg := Spider2Group()
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = 256 << 20
	members := make([]*disk.Disk, cfg.Width())
	for i := range members {
		members[i] = disk.New(eng, i, dcfg, disk.Nominal(), src.Split("d"))
	}
	g := NewGroup(eng, 0, cfg, members)
	g.FailDisk(0)
	repl := disk.New(eng, 99, dcfg, disk.Nominal(), src.Split("r"))
	g.StartRebuild(0, repl, nil)
	eng.RunFor(2 * sim.Second)
	p := g.RebuildProgress()
	if p <= 0 || p > 1 {
		t.Fatalf("progress = %f after 2s", p)
	}
}

// rebuildGroup returns a group of 256 MiB members with member 0 failed
// and a same-product replacement for it.
func rebuildGroup(seed uint64) (*sim.Engine, *Group, *disk.Disk) {
	eng := sim.NewEngine()
	src := rng.New(seed)
	cfg := Spider2Group()
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = 256 << 20
	members := make([]*disk.Disk, cfg.Width())
	for i := range members {
		members[i] = disk.New(eng, i, dcfg, disk.Nominal(), src.Split("d"))
	}
	g := NewGroup(eng, 0, cfg, members)
	g.FailDisk(0)
	return eng, g, disk.New(eng, 99, dcfg, disk.Nominal(), src.Split("r"))
}

// The stripe count is fixed at NewGroup; rebuilding member 0, the disk
// it used to be read from, onto the same product leaves it unchanged.
func TestTotalStripesSurvivesRebuild(t *testing.T) {
	eng, g, repl := rebuildGroup(14)
	stripes, capacity := g.stripes, g.Capacity()
	if want := repl.Config().Capacity / g.Config().ChunkSize; stripes != want {
		t.Fatalf("stripes = %d, want %d", stripes, want)
	}
	g.StartRebuild(0, repl, nil)
	eng.Run()
	if g.State() != Healthy || g.Disks()[0] != repl {
		t.Fatalf("state %v after rebuild onto member 0", g.State())
	}
	if g.stripes != stripes || g.Capacity() != capacity {
		t.Fatalf("after rebuild: %d stripes, capacity %d; before: %d, %d", g.stripes, g.Capacity(), stripes, capacity)
	}
}

// TestRebuildTimeMatchesThrottle checks what a rebuild's two throttle
// values mean against closed-form bounds. On an idle group whose
// members never stall, every batch reads RebuildChunk stripes from
// each survivor where the last batch ended and then waits RebuildPause,
// so the rebuild lasts between
//
//	lower: batches × RebuildPause + the bytes rebuilt per member at
//	       the fastest (outer) zone rate
//	upper: batches × (RebuildPause + positioning) + those bytes at
//	       the slowest (inner) zone rate
//
// with the zone rates and positioning taken from disk.ServiceTime, the
// drive's analytic service model, on fresh drives of the same product.
// Four 16 MiB batches per member keep the positioning slack small, so
// a pause skipped or added, or a member's bytes moved twice or not at
// all, falls outside the bounds.
func TestRebuildTimeMatchesThrottle(t *testing.T) {
	const (
		chunk = 128
		pause = 500 * sim.Millisecond
	)
	eng := sim.NewEngine()
	src := rng.New(16)
	cfg := Spider2Group()
	dcfg := disk.Config{Capacity: 64 << 20}
	steady := disk.Health{SpeedFactor: 1} // no long-tail excursions
	probe := func() *disk.Disk { return disk.New(eng, 100, dcfg, steady, src.Split("probe")) }
	members := make([]*disk.Disk, cfg.Width())
	for i := range members {
		members[i] = disk.New(eng, i, dcfg, steady, src.Split("d"))
	}
	g := NewGroup(eng, 0, cfg, members)
	g.RebuildChunk = chunk
	g.RebuildPause = pause
	g.FailDisk(0)

	stripes := g.stripes
	batches := (stripes + chunk - 1) / chunk
	perMember := stripes * cfg.ChunkSize
	// From the outer edge with the head already there: one command's
	// overhead plus the whole member at the fastest rate.
	fastest := probe().ServiceTime(disk.Op{LBA: 0, Size: perMember})
	// From the outer edge to the inner one: overhead, a full-stroke
	// seek, rotation, and the whole member at the slowest rate.
	slowest := probe().ServiceTime(disk.Op{LBA: dcfg.Capacity, Size: perMember})
	positioning := probe().ServiceTime(disk.Op{LBA: dcfg.Capacity, Size: 1})
	lower := sim.Time(batches)*pause + fastest
	upper := sim.Time(batches)*(pause+positioning) + slowest

	start := eng.Now()
	var took sim.Time
	g.StartRebuild(0, disk.New(eng, 99, dcfg, steady, src.Split("r")), func() { took = eng.Now() - start })
	eng.Run()
	if g.State() != Healthy || took == 0 {
		t.Fatalf("rebuild did not complete: state %v after %v", g.State(), took)
	}
	if took < lower || took > upper {
		t.Fatalf("%d batches of %d stripes with %v pauses took %v, want within [%v, %v]",
			batches, chunk, pause, took, lower, upper)
	}
}

// TestRebuildBatchAllocationCeiling pins the steady-state rebuild path:
// one batch cycle (the pause timer, nine survivor reads, the
// replacement write, the barrier and its completion) allocates
// nothing. The group reuses one rebuild record from batch to batch.
func TestRebuildBatchAllocationCeiling(t *testing.T) {
	eng, g, repl := rebuildGroup(15)
	g.RebuildChunk = 4
	g.RebuildPause = sim.Second
	g.StartRebuild(0, repl, nil)
	cycle := func() {
		want := g.rebuildNext + g.RebuildChunk
		for g.rebuildNext < want && eng.Step() {
		}
	}
	for i := 0; i < 16; i++ { // every queue and free list at size
		cycle()
	}
	before := g.rebuildNext
	perBatch := testing.AllocsPerRun(100, cycle)
	if got := g.rebuildNext - before; got != 101*g.RebuildChunk {
		t.Fatalf("rebuilt %d stripes over 101 cycles, want %d", got, 101*g.RebuildChunk)
	}
	if perBatch > 0 {
		t.Errorf("steady-state rebuild batch allocates %.2f, want 0", perBatch)
	}
	eng.Run()
	if g.State() != Healthy {
		t.Fatalf("state after rebuild = %v", g.State())
	}
}

// A rebuild cancelled while its batch is reading leaves that batch the
// record it is reading into; the next rebuild gets its own, so the two
// barriers never share a count and the orphan only ends its span.
func TestRebuildAfterCancelMidBatch(t *testing.T) {
	eng, g, repl := rebuildGroup(16)
	g.StartRebuild(0, repl, func() { t.Error("cancelled rebuild reported done") })
	orphan := g.rebuild
	if !orphan.busy {
		t.Fatal("first batch not in flight")
	}
	g.restoreDisk(0)
	g.FailDisk(1)
	repl1 := disk.New(eng, 98, repl.Config(), disk.Nominal(), rng.New(17))
	finished := 0
	g.StartRebuild(1, repl1, func() { finished++ })
	if g.rebuild == orphan {
		t.Fatal("new rebuild reuses the record of the batch still reading")
	}
	eng.Run()
	if orphan.busy || finished != 1 || g.State() != Healthy {
		t.Fatalf("orphan busy %v, %d completions, state %v; want idle, 1, healthy", orphan.busy, finished, g.State())
	}
}

func TestInvalidExtentPanics(t *testing.T) {
	_, g := newTestGroup(t, 13)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.Read(g.Capacity()-100, 4096, nil)
}
