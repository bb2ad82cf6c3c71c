package raid

import (
	"testing"

	"spiderfs/internal/disk"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
)

// smallGroup builds a 8+2 group over 64 MiB member disks (512 stripes)
// so integrity walks stay cheap in event count.
func smallGroup(t *testing.T, seed uint64) (*sim.Engine, *Group) {
	t.Helper()
	eng := sim.NewEngine()
	src := rng.New(seed)
	cfg := Spider2Group()
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = 64 << 20
	members := make([]*disk.Disk, cfg.Width())
	for i := range members {
		members[i] = disk.New(eng, i, dcfg, disk.Nominal(), src.Split("d"))
	}
	return eng, NewGroup(eng, 0, cfg, members)
}

// corruptChunk plants a defect in the chunk that data index k of the
// stripe maps to, and returns the member holding it.
func corruptChunk(g *Group, stripe int64, dataIdx int, kind disk.CorruptKind) int {
	m := g.chunkLocation(stripe, dataIdx)
	g.dsks[m].InjectError(g.diskOffset(stripe), kind)
	return m
}

func TestVerifyOnSuspectServesSilentCorruption(t *testing.T) {
	eng, g := smallGroup(t, 22)
	corruptChunk(g, 0, 0, disk.Silent)
	var oc ReadOutcome
	g.ReadChecked(0, g.cfg.StripeDataSize(), func(o ReadOutcome) { oc = o })
	eng.Run()
	if oc.Undetected != 1 || oc.Repaired != 0 {
		t.Fatalf("outcome = %+v, want 1 undetected corrupt read", oc)
	}
	if g.UndetectedCorruptReads != 1 {
		t.Fatalf("UndetectedCorruptReads = %d", g.UndetectedCorruptReads)
	}
}

func TestDriveReportedURERepairsInline(t *testing.T) {
	eng, g := smallGroup(t, 23)
	m := corruptChunk(g, 0, 0, disk.URE)
	var oc ReadOutcome
	g.ReadChecked(0, g.cfg.StripeDataSize(), func(o ReadOutcome) { oc = o })
	eng.Run()
	// A URE is drive-reported, so the read escalates to the verify path
	// and reconstructs-and-rewrites.
	if oc.Repaired != 1 || oc.Undetected != 0 || oc.EIO {
		t.Fatalf("outcome = %+v, want inline repair", oc)
	}
	if g.UREsDetected != 1 || g.RepairedChunks != 1 {
		t.Fatalf("UREs/repairs = %d/%d", g.UREsDetected, g.RepairedChunks)
	}
	if g.dsks[m].CorruptSectors() != 0 {
		t.Fatal("URE not healed by rewrite")
	}
}

func TestDefectsBeyondParityEscalateOnce(t *testing.T) {
	eng, g := smallGroup(t, 24)
	g.FailDisk(0)
	g.FailDisk(1)
	// Two members offline spend the parity budget; one more defect on a
	// surviving chunk makes the stripe unrecoverable.
	stripe := int64(5)
	var mem int
	for k := 0; k < g.cfg.DataDisks; k++ {
		if m := g.chunkLocation(stripe, k); m != 0 && m != 1 {
			g.dsks[m].InjectError(g.diskOffset(stripe), disk.Silent)
			mem = m
			break
		}
	}
	var losses []int64
	g.OnStripeLoss = func(s int64) { losses = append(losses, s) }
	var first, second ReadOutcome
	off := stripe * g.cfg.StripeDataSize()
	g.ReadChecked(off, g.cfg.StripeDataSize(), func(o ReadOutcome) { first = o })
	eng.Run()
	g.ReadChecked(off, g.cfg.StripeDataSize(), func(o ReadOutcome) { second = o })
	eng.Run()
	if !first.EIO || !second.EIO {
		t.Fatalf("outcomes = %+v / %+v, want EIO both times", first, second)
	}
	if len(losses) != 1 || losses[0] != stripe {
		t.Fatalf("OnStripeLoss fired %v, want exactly once for stripe %d", losses, stripe)
	}
	if g.UnrecoverableStripes != 1 || g.LostStripeReads != 1 {
		t.Fatalf("lost/lost-reads = %d/%d, want 1/1", g.UnrecoverableStripes, g.LostStripeReads)
	}
	if g.dsks[mem].CorruptSectors() == 0 {
		t.Fatal("unrecoverable defect should stay on the platter")
	}
}

func TestScrubRepairsStormAndConverges(t *testing.T) {
	eng, g := smallGroup(t, 25)
	src := rng.New(77).Split("storm")
	for i := 0; i < 24; i++ {
		m := src.Intn(g.cfg.Width())
		lba := src.Int63n(g.dsks[m].Config().Capacity)
		g.dsks[m].InjectError(lba, disk.Silent)
	}
	planted := 0
	for _, d := range g.dsks {
		planted += d.CorruptSectors()
	}
	// One batch is one full pass; the next pass starts an hour later.
	s := NewScrubber(g, ScrubConfig{BatchStripes: g.stripes, BatchPause: sim.Second, PassInterval: sim.Hour})
	s.Start()
	eng.RunFor(sim.Minute)
	if s.Passes != 1 || s.Repairs != planted || s.Lost != 0 || s.ScannedStripes != g.stripes {
		t.Fatalf("first pass: %d passes over %d stripes repaired %d of %d planted, lost %d",
			s.Passes, s.ScannedStripes, s.Repairs, planted, s.Lost)
	}
	eng.RunFor(sim.Hour)
	s.Stop()
	eng.Run()
	if s.Passes != 2 || s.Repairs != planted {
		t.Fatalf("second pass repaired %d more, want a clean array", s.Repairs-planted)
	}
}

func TestScrubDuringRebuildMeasuresDoubleFailureWindow(t *testing.T) {
	eng, g := smallGroup(t, 26)
	g.RebuildChunk = 8
	g.RebuildPause = 10 * sim.Second // keep the rebuild in flight for a while
	g.FailDisk(3)
	// Latent error on a survivor, in a stripe the scrub will reach.
	stripe := int64(100)
	for k := 0; k < g.cfg.DataDisks; k++ {
		if m := g.chunkLocation(stripe, k); m != 3 {
			g.dsks[m].InjectError(g.diskOffset(stripe), disk.URE)
			break
		}
	}
	repl := disk.New(eng, 99, g.dsks[0].Config(), disk.Nominal(), rng.New(5).Split("r"))
	g.StartRebuild(3, repl, nil)
	s := NewScrubber(g, ScrubConfig{BatchStripes: 128, BatchPause: sim.Hour, PassInterval: sim.Hour})
	s.Start()
	eng.RunFor(5 * sim.Second)
	if s.RebuildOverlaps != 1 || s.Repairs != 1 {
		t.Fatalf("overlaps/repairs = %d/%d, want a repair during the rebuild", s.RebuildOverlaps, s.Repairs)
	}
	if g.RebuildLatentHits == 0 {
		t.Fatal("latent error during rebuild not counted as double-failure exposure")
	}
	s.Stop()
	eng.Run()
	if g.State() != Healthy {
		t.Fatalf("state = %v after rebuild completes", g.State())
	}
}

// --- rebuild lifecycle hardening (satellite 2) ---

func TestSecondFailureDuringRebuildQueuesReplacement(t *testing.T) {
	eng, g := smallGroup(t, 28)
	g.RebuildChunk = 16
	g.RebuildPause = sim.Second
	g.FailDisk(0)
	dcfg := g.dsks[0].Config()
	var order []int
	r0 := disk.New(eng, 90, dcfg, disk.Nominal(), rng.New(7).Split("r0"))
	g.StartRebuild(0, r0, func() { order = append(order, 0) })
	eng.RunFor(2 * sim.Second)
	// Second failure while the first rebuild runs: still within parity.
	if st := g.FailDisk(7); st != Rebuilding {
		t.Fatalf("second failure -> %v, want still rebuilding", st)
	}
	r7 := disk.New(eng, 91, dcfg, disk.Nominal(), rng.New(7).Split("r7"))
	g.StartRebuild(7, r7, func() { order = append(order, 7) })
	first := g.rebuildMember
	if first != 0 {
		t.Fatalf("running rebuild clobbered: member = %d, want 0", first)
	}
	eng.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 7 {
		t.Fatalf("rebuild completion order = %v, want [0 7]", order)
	}
	if g.State() != Healthy {
		t.Fatalf("state = %v after both rebuilds", g.State())
	}
}

func TestGroupFailureDuringRebuildClearsBookkeeping(t *testing.T) {
	eng, g := smallGroup(t, 29)
	g.RebuildChunk = 8
	g.RebuildPause = 5 * sim.Second
	g.FailDisk(0)
	repl := disk.New(eng, 92, g.dsks[0].Config(), disk.Nominal(), rng.New(8).Split("r"))
	g.StartRebuild(0, repl, func() { t.Fatal("rebuild on a failed group must not complete") })
	eng.RunFor(2 * sim.Second)
	g.FailDisk(5)
	if st := g.FailDisk(8); st != Failed {
		t.Fatalf("third failure -> %v, want failed", st)
	}
	if g.rebuildEvent.Pending() || g.rebuildMember != -1 || g.rebuildNext != 0 || g.pending.Len() != 0 {
		t.Fatalf("stale rebuild bookkeeping after group failure: event=%v member=%d next=%d pending=%d",
			g.rebuildEvent, g.rebuildMember, g.rebuildNext, g.pending.Len())
	}
	eng.Run()
	if g.State() != Failed {
		t.Fatalf("state = %v", g.State())
	}
}

// TestDiskTracingHasNoObserverEffect runs one RAID workload untraced
// and with a tracer sampling every request. An untraced disk command
// hands done straight to the server; a traced one wraps it to decompose
// its span. The two paths must schedule the same events and record the
// same counters on every member.
func TestDiskTracingHasNoObserverEffect(t *testing.T) {
	type member struct {
		lat      float64
		ops      uint64
		bytes    int64
		slowCmds uint32
	}
	run := func(every int) (uint64, uint64, []member, int) {
		eng := sim.NewEngine()
		hash := sim.NewTraceHash()
		eng.SetTrace(hash.Observe)
		src := rng.New(41)
		dcfg := disk.NLSAS2TB()
		dcfg.Capacity = 64 << 20
		weak := disk.Nominal()
		weak.TailProb = 0.05 // tail excursions on a few percent of commands
		members := make([]*disk.Disk, Spider2Group().Width())
		for i := range members {
			members[i] = disk.New(eng, i, dcfg, weak, src.Split("d"))
		}
		g := NewGroup(eng, 0, Spider2Group(), members)
		tr := spantrace.New(rng.New(5), every)
		if every > 0 {
			tr.Bind(eng)
			g.SetTracer(tr)
		}
		corruptChunk(g, 40, 2, disk.Silent)
		load := rng.New(8).Split("load")
		for i := 0; i < 200; i++ {
			root := tr.SampleRoot(spantrace.Client, "op", 0)
			old := tr.Swap(root)
			off := load.Int63n(g.Capacity() - 4<<20)
			switch i % 3 {
			case 0:
				g.Write(off&^(1<<20-1), 1<<20, nil) // full stripe
			case 1:
				g.Write(off, 128<<10, nil) // read-modify-write
			default:
				g.Read(off, 512<<10, nil)
			}
			tr.Swap(old)
			tr.End(root)
			eng.RunFor(10 * sim.Millisecond)
		}
		s := NewScrubber(g, ScrubConfig{BatchStripes: g.stripes, BatchPause: sim.Hour, PassInterval: sim.Hour})
		s.Start()
		eng.RunFor(sim.Minute) // one full-range batch
		s.Stop()
		eng.Run()
		out := make([]member, len(members))
		for i, d := range members {
			out[i] = member{d.MeanLatency(), d.Ops, d.Bytes, d.SlowCmds}
		}
		diskSpans := 0
		for _, sp := range tr.Spans() {
			if sp.Layer == spantrace.Disk {
				diskSpans++
			}
		}
		return hash.Sum(), hash.Events(), out, diskSpans
	}
	sumA, evA, a, _ := run(0)
	sumB, evB, b, diskSpans := run(1)
	if diskSpans == 0 {
		t.Fatal("traced run recorded no disk spans")
	}
	if sumA != sumB || evA != evB {
		t.Fatalf("trace fingerprint %016x/%d untraced, %016x/%d traced", sumA, evA, sumB, evB)
	}
	slow := uint64(0)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("member %d: untraced %+v, traced %+v", i, a[i], b[i])
		}
		slow += uint64(a[i].slowCmds)
	}
	if slow == 0 {
		t.Fatal("no tail excursions: SlowCmds is not exercised")
	}
}

// TestCheckRangeAllocationCeiling holds a warmed group's range check
// to zero allocations for the scan and the sort: the defects go into
// the group's reused hits buffer. The defects sit in stripes already
// escalated as lost, so the check issues no repair writes.
func TestCheckRangeAllocationCeiling(t *testing.T) {
	_, g := smallGroup(t, 31)
	ck := g.cfg.ChunkSize
	for _, stripe := range []int64{9, 3, 7} {
		for k := 0; k <= g.cfg.ParityDisks; k++ {
			corruptChunk(g, stripe, k, disk.Silent)
		}
	}
	var b sim.Barrier
	if _, lost := g.checkRange(0, 16*ck, &b); lost != 3 {
		t.Fatalf("warming check lost %d stripes, want 3", lost)
	}
	if n := testing.AllocsPerRun(100, func() {
		if repaired, lost := g.checkRange(0, 16*ck, &b); repaired != 0 || lost != 0 {
			t.Fatalf("repeat check repaired/lost %d/%d, want 0/0", repaired, lost)
		}
	}); n > 0 {
		t.Errorf("checkRange allocates %.2f per call, want 0", n)
	}
}
