package raid

import (
	"testing"

	"spiderfs/internal/disk"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

func newCouplet(t *testing.T, layout EnclosureLayout, nGroups int, seed uint64) (*sim.Engine, *Couplet) {
	t.Helper()
	eng := sim.NewEngine()
	src := rng.New(seed)
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = 64 << 20
	groups := BuildGroups(eng, nGroups, dcfg, src)
	return eng, NewCouplet(layout, groups)
}

func TestJournalLifecycle(t *testing.T) {
	var j Journal
	j.Log(100)
	j.Commit(60)
	if j.Uncommitted != 40 || j.Committed != 60 {
		t.Fatalf("uncommitted=%d committed=%d", j.Uncommitted, j.Committed)
	}
	j.Commit(1000) // clamped
	if j.Uncommitted != 0 || j.Committed != 100 {
		t.Fatalf("after over-commit: %+v", j)
	}
	j.Log(7)
	if lost := j.Drop(); lost != 7 || j.Lost != 7 {
		t.Fatalf("drop lost %d, journal %+v", lost, j)
	}
}

func TestSpider1LayoutEnclosureLossDuringRebuildFails(t *testing.T) {
	// The §IV-E incident: one disk replaced (rebuild running), then an
	// enclosure drops. In the 5-enclosure layout the enclosure carries 2
	// members of every group -> 3 concurrent failures -> data loss.
	eng, c := newCouplet(t, Spider1Layout(), 4, 1)
	g := c.Groups()[0]
	g.FailDisk(0)
	repl := disk.New(eng, 99, g.Disks()[0].Config(), disk.Nominal(), rng.New(5))
	g.StartRebuild(0, repl, nil)
	eng.RunFor(10 * sim.Millisecond)

	// Fail an enclosure that does NOT house member 0 (members 2,3 live
	// in enclosure 1 under the 5x2 layout).
	failed := c.FailEnclosure(1)
	if failed == 0 {
		t.Fatal("expected at least the rebuilding group to fail")
	}
	if g.State() != Failed {
		t.Fatalf("rebuilding group state = %v, want failed", g.State())
	}
}

func TestSpider2LayoutEnclosureLossDuringRebuildSurvives(t *testing.T) {
	eng, c := newCouplet(t, Spider2Layout(), 4, 2)
	g := c.Groups()[0]
	g.FailDisk(0)
	repl := disk.New(eng, 99, g.Disks()[0].Config(), disk.Nominal(), rng.New(5))
	g.StartRebuild(0, repl, nil)
	eng.RunFor(10 * sim.Millisecond)

	// 10x1 layout: an enclosure loss is a single member per group.
	failed := c.FailEnclosure(1)
	if failed != 0 {
		t.Fatalf("%d groups failed; 10-enclosure layout should tolerate this", failed)
	}
	if g.State() == Failed {
		t.Fatal("group failed; should be rebuilding/degraded")
	}
}

func TestTakeOfflineCleanCommitsJournal(t *testing.T) {
	_, c := newCouplet(t, Spider2Layout(), 2, 3)
	c.Journal.Log(500)
	if lost := c.TakeOffline(); lost != 0 {
		t.Fatalf("clean shutdown lost %d entries", lost)
	}
	if c.Journal.Committed != 500 {
		t.Fatalf("committed = %d", c.Journal.Committed)
	}
}

func TestTakeOfflineDuringRebuildLosesJournal(t *testing.T) {
	eng, c := newCouplet(t, Spider1Layout(), 2, 4)
	g := c.Groups()[0]
	g.FailDisk(0)
	repl := disk.New(eng, 99, g.Disks()[0].Config(), disk.Nominal(), rng.New(5))
	g.StartRebuild(0, repl, nil)
	eng.RunFor(5 * sim.Millisecond) // rebuild still in flight
	c.Journal.Log(1_000_000)
	lost := c.TakeOffline()
	if lost != 1_000_000 {
		t.Fatalf("lost %d journal entries, want 1000000", lost)
	}
}

func TestRecoverFilesRate(t *testing.T) {
	_, c := newCouplet(t, Spider2Layout(), 1, 5)
	c.Journal.Log(100000)
	c.Journal.Drop()
	rec, lost := c.RecoverFiles(rng.New(6), 0.95)
	total := rec + lost
	if total != 100000 {
		t.Fatalf("recovered+lost = %d", total)
	}
	frac := float64(rec) / float64(total)
	if frac < 0.94 || frac > 0.96 {
		t.Fatalf("recovery rate = %f, want ~0.95", frac)
	}
}

func TestControllerFailover(t *testing.T) {
	_, c := newCouplet(t, Spider2Layout(), 1, 7)
	c.ControllerFailover()
	if c.ActiveControllers != 1 {
		t.Fatalf("controllers = %d", c.ActiveControllers)
	}
	c.ControllerFailover() // cannot go below 1
	if c.ActiveControllers != 1 {
		t.Fatalf("controllers = %d", c.ActiveControllers)
	}
}

func TestCoupletLayoutMismatchPanics(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(8)
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = 64 << 20
	groups := BuildGroups(eng, 1, dcfg, src)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on layout mismatch")
		}
	}()
	NewCouplet(EnclosureLayout{Enclosures: 4, PerEnclosure: 2}, groups)
}

func TestBuildGroupsPartitionsDisks(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(9)
	groups := BuildGroups(eng, 3, disk.NLSAS2TB(), src)
	seen := map[*disk.Disk]bool{}
	for _, g := range groups {
		for _, d := range g.Disks() {
			if seen[d] {
				t.Fatal("disk shared between groups")
			}
			seen[d] = true
		}
	}
	if len(seen) != 30 {
		t.Fatalf("total disks = %d", len(seen))
	}
}
