package qa

import (
	"fmt"
	"testing"

	"spiderfs/internal/disk"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

// buildFleet makes nGroups RAID groups on small disks with the standard
// slow/weak population so campaigns run fast.
func buildFleet(eng *sim.Engine, nGroups int, seed uint64) []*raid.Group {
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = 1 << 30
	return raid.BuildGroups(eng, nGroups, dcfg, rng.New(seed))
}

func TestEliminationTightensSpread(t *testing.T) {
	eng := sim.NewEngine()
	groups := buildFleet(eng, 24, 1)
	rep := RunElimination(eng, groups, 16<<20, rng.New(2))
	if len(rep.Rounds) == 0 {
		t.Fatal("no rounds ran")
	}
	first := rep.Rounds[0]
	last := rep.Rounds[len(rep.Rounds)-1]
	if rep.TotalReplaced == 0 {
		t.Fatal("campaign replaced nothing despite seeded slow disks")
	}
	if last.Spread >= first.Spread {
		t.Fatalf("spread did not improve: %.3f -> %.3f", first.Spread, last.Spread)
	}
	if rep.AfterMBps <= rep.BeforeMBps {
		t.Fatalf("aggregate did not improve: %.0f -> %.0f MB/s", rep.BeforeMBps, rep.AfterMBps)
	}
}

func TestEliminationReplacedFractionPlausible(t *testing.T) {
	// The paper replaced ~2,000 of 20,160 drives (~10%) across block and
	// FS level passes. Our campaign should replace a single-digit to
	// ~15% fraction, not zero and not half the fleet.
	eng := sim.NewEngine()
	groups := buildFleet(eng, 24, 3)
	rep := RunElimination(eng, groups, 16<<20, rng.New(4))
	total := 24 * 10
	frac := float64(rep.TotalReplaced) / float64(total)
	if frac < 0.01 || frac > 0.25 {
		t.Fatalf("replaced fraction = %.3f (%d/%d), want ~0.05-0.15", frac, rep.TotalReplaced, total)
	}
}

func TestEliminationConvergesOnCleanFleet(t *testing.T) {
	eng := sim.NewEngine()
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = 1 << 30
	// A clean batch: healthy speed factors drawn tight around spec
	// (sigma 0.005), no slow and no weak drives.
	gcfg := raid.Spider2Group()
	src := rng.New(5)
	groups := make([]*raid.Group, 12)
	for g := range groups {
		members := make([]*disk.Disk, gcfg.Width())
		for i := range members {
			h := disk.Nominal()
			h.SpeedFactor = src.TruncNormal(1.0, 0.005, 0.9, 1.08)
			id := g*gcfg.Width() + i
			members[i] = disk.New(eng, id, dcfg, h, src.Split(fmt.Sprintf("disk-%d", id)))
		}
		groups[g] = raid.NewGroup(eng, g, gcfg, members)
	}
	rep := RunElimination(eng, groups, 16<<20, rng.New(6))
	if !rep.Converged {
		t.Fatalf("clean fleet failed to converge: %+v", rep.Rounds[len(rep.Rounds)-1])
	}
	if len(rep.Rounds) > 2 {
		t.Fatalf("clean fleet needed %d rounds", len(rep.Rounds))
	}
}

func TestReportString(t *testing.T) {
	rep := Report{TotalReplaced: 3, BeforeMBps: 100, AfterMBps: 120, Converged: true,
		Rounds: []Round{{Index: 0}}}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}
