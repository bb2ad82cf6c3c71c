package raid

import (
	"testing"

	"spiderfs/internal/disk"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
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

func TestVerifyAlwaysRepairsSilentCorruption(t *testing.T) {
	eng, g := smallGroup(t, 21)
	g.Verify = VerifyAlways
	m := corruptChunk(g, 0, 0, disk.Silent)
	var oc ReadOutcome
	g.ReadChecked(0, g.cfg.StripeDataSize(), func(o ReadOutcome) { oc = o })
	eng.Run()
	if oc.Undetected != 0 || oc.Repaired != 1 || oc.EIO {
		t.Fatalf("outcome = %+v, want 1 inline repair", oc)
	}
	if g.ChecksumMismatches != 1 || g.RepairedChunks != 1 || g.UndetectedCorruptReads != 0 {
		t.Fatalf("counters mismatch/repair/undetected = %d/%d/%d",
			g.ChecksumMismatches, g.RepairedChunks, g.UndetectedCorruptReads)
	}
	if g.dsks[m].CorruptSectors() != 0 {
		t.Fatal("repair write did not heal the member")
	}
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
	// A URE is drive-reported, so even verify-on-suspect escalates to
	// the verify path and reconstructs-and-rewrites.
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
	var res ScrubResult
	g.ScrubStripes(0, g.TotalStripes(), func(r ScrubResult) { res = r })
	eng.Run()
	if res.Repaired != planted || res.Lost != 0 {
		t.Fatalf("scrub repaired %d of %d planted, lost %d", res.Repaired, planted, res.Lost)
	}
	if g.ScrubRepairs != uint64(planted) || g.ScrubbedStripes != g.TotalStripes() {
		t.Fatalf("ScrubRepairs/ScrubbedStripes = %d/%d", g.ScrubRepairs, g.ScrubbedStripes)
	}
	g.ScrubStripes(0, g.TotalStripes(), func(r ScrubResult) { res = r })
	eng.Run()
	if res.Repaired != 0 {
		t.Fatalf("second scrub pass repaired %d, want a clean array", res.Repaired)
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
	var res ScrubResult
	g.ScrubStripes(0, 128, func(r ScrubResult) { res = r })
	eng.RunFor(5 * sim.Second)
	if !res.Rebuilding || res.Repaired != 1 {
		t.Fatalf("scrub result = %+v, want a repair during the rebuild", res)
	}
	if g.RebuildLatentHits == 0 {
		t.Fatal("latent error during rebuild not counted as double-failure exposure")
	}
	eng.Run()
	if g.State() != Healthy {
		t.Fatalf("state = %v after rebuild completes", g.State())
	}
}

// --- rebuild lifecycle hardening (satellite 2) ---

func TestRestoreDuringRebuildCancelsCleanly(t *testing.T) {
	eng, g := smallGroup(t, 27)
	g.RebuildChunk = 8
	g.RebuildPause = 5 * sim.Second
	g.FailDisk(4)
	repl := disk.New(eng, 99, g.dsks[0].Config(), disk.Nominal(), rng.New(6).Split("r"))
	g.StartRebuild(4, repl, func() { t.Fatal("cancelled rebuild must not report completion") })
	eng.RunFor(2 * sim.Second)
	if g.State() != Rebuilding {
		t.Fatalf("state = %v, want rebuilding", g.State())
	}
	if st := g.RestoreDisk(4); st != Healthy {
		t.Fatalf("restore -> %v, want healthy", st)
	}
	if g.rebuildEvent.Pending() || g.rebuildMember != -1 || g.rebuildNext != 0 {
		t.Fatalf("stale rebuild bookkeeping: event=%v member=%d next=%d",
			g.rebuildEvent, g.rebuildMember, g.rebuildNext)
	}
	eng.Run() // any orphaned batch continuation would fire t.Fatal above
	if g.State() != Healthy {
		t.Fatalf("state = %v after drain", g.State())
	}
}

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
	// Restoring a member of a dead group resurrects nothing.
	if st := g.RestoreDisk(5); st != Failed {
		t.Fatalf("restore on failed group -> %v", st)
	}
}
