package failure

import (
	"fmt"
	"testing"

	"spiderfs/internal/disk"
	"spiderfs/internal/monitor"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

func smallGroups(eng *sim.Engine, n int, seed uint64) []*raid.Group {
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = 64 << 20
	return raid.BuildGroups(eng, n, dcfg, rng.New(seed))
}

func TestInjectorFailsAndRebuilds(t *testing.T) {
	eng := sim.NewEngine()
	groups := smallGroups(eng, 8, 1)
	cfg := DiskFailureConfig{AnnualFailureRate: 200, ReplaceDelay: sim.Minute} // absurd rate to see action fast
	var events []monitor.Event
	in := NewInjector(eng, groups, cfg, rng.New(2))
	in.Events = func(ev monitor.Event) { events = append(events, ev) }
	in.Start()
	eng.RunUntil(2 * sim.Hour)
	in.Stop()
	eng.Run()
	if in.Failures == 0 {
		t.Fatal("no failures injected in 2h at an extreme rate")
	}
	if in.Rebuilds == 0 {
		t.Fatal("no rebuilds started")
	}
	if len(events) < in.Failures {
		t.Fatalf("events %d < failures %d", len(events), in.Failures)
	}
	for _, ev := range events[:1] {
		if ev.Class != monitor.Hardware || ev.Kind != "disk-failure" {
			t.Fatalf("unexpected first event %+v", ev)
		}
	}
}

// A draw landing on an already-Failed group must resample among live
// groups rather than silently wasting the failure slot: with 3 of 4
// groups pre-failed, every injected failure must land on the survivor.
func TestInjectorResamplesFailedGroups(t *testing.T) {
	eng := sim.NewEngine()
	groups := smallGroups(eng, 4, 7)
	for _, g := range groups[:3] {
		for m := 0; m < 3; m++ { // 3 > parity: group Failed
			g.FailDisk(m)
		}
		if g.State() != raid.Failed {
			t.Fatal("setup: group not failed")
		}
	}
	var events []monitor.Event
	in := NewInjector(eng, groups, DiskFailureConfig{AnnualFailureRate: 300, ReplaceDelay: sim.Minute}, rng.New(8))
	in.Events = func(ev monitor.Event) { events = append(events, ev) }
	in.Start()
	eng.RunUntil(4 * sim.Hour)
	in.Stop()
	eng.Run()
	if in.Failures == 0 {
		t.Fatal("no failures delivered with one live group remaining")
	}
	live := fmt.Sprintf("grp%d-", groups[3].ID)
	for _, ev := range events {
		if ev.Kind != "disk-failure" {
			continue
		}
		if len(ev.Component) < len(live) || ev.Component[:len(live)] != live {
			t.Fatalf("failure injected into dead group: %s", ev.Component)
		}
	}
}

func TestInjectorAllGroupsFailedIsQuiet(t *testing.T) {
	eng := sim.NewEngine()
	groups := smallGroups(eng, 2, 9)
	for _, g := range groups {
		for m := 0; m < 3; m++ {
			g.FailDisk(m)
		}
	}
	in := NewInjector(eng, groups, DiskFailureConfig{AnnualFailureRate: 300, ReplaceDelay: sim.Minute}, rng.New(10))
	in.Start()
	eng.RunUntil(2 * sim.Hour)
	in.Stop()
	eng.Run()
	if in.Failures != 0 {
		t.Fatalf("injected %d failures with no live group", in.Failures)
	}
}

func TestInjectorHooksFire(t *testing.T) {
	eng := sim.NewEngine()
	groups := smallGroups(eng, 2, 11)
	in := NewInjector(eng, groups, DiskFailureConfig{AnnualFailureRate: 400, ReplaceDelay: sim.Minute}, rng.New(12))
	failed := 0
	in.OnGroupFailed = func(*raid.Group) { failed++ }
	in.Start()
	eng.RunUntil(12 * sim.Hour)
	in.Stop()
	eng.Run()
	if in.Rebuilds == 0 {
		t.Fatal("no rebuild started at an extreme failure rate")
	}
	for _, g := range groups {
		if g.State() == raid.Rebuilding {
			t.Fatalf("group %d still rebuilding after the engine drained", g.ID)
		}
	}
	if failed != in.DataLoss {
		t.Fatalf("OnGroupFailed fired %d times, DataLoss = %d", failed, in.DataLoss)
	}
}

func TestInjectorQuietAtZeroRate(t *testing.T) {
	eng := sim.NewEngine()
	groups := smallGroups(eng, 2, 3)
	in := NewInjector(eng, groups, DiskFailureConfig{AnnualFailureRate: 0}, rng.New(4))
	in.Start()
	eng.RunUntil(24 * sim.Hour)
	if in.Failures != 0 {
		t.Fatalf("zero-rate injector failed %d drives", in.Failures)
	}
}

func TestCableFlapFeedsCoalescer(t *testing.T) {
	eng := sim.NewEngine()
	c := &monitor.Coalescer{}
	CableFlap(eng, c.Ingest, "ib-leaf3-port7", sim.Minute)
	eng.Run()
	c.Close()
	if len(c.Incidents) != 1 {
		t.Fatalf("incidents = %d, want 1 coalesced", len(c.Incidents))
	}
	inc := c.Incidents[0]
	if inc.RootClass != monitor.Hardware {
		t.Fatalf("root = %v, want hardware (the cable)", inc.RootClass)
	}
	if len(inc.Events) != 3 {
		t.Fatalf("events = %d", len(inc.Events))
	}
}

// The E8 experiment: under the Spider I 5-enclosure layout the incident
// loses data and the journal; under the corrected 10-enclosure layout
// the same operator actions are survivable.
func TestHumanErrorScenarioLayoutContrast(t *testing.T) {
	spider1 := HumanErrorScenario(raid.Spider1Layout(), 10)
	spider2 := HumanErrorScenario(raid.Spider2Layout(), 20)

	if spider1.GroupsFailed == 0 {
		t.Fatal("Spider I layout should lose groups")
	}
	if spider1.JournalLost != 1_000_000 {
		t.Fatalf("journal lost = %d, want 1M (unclean offline)", spider1.JournalLost)
	}
	if got := spider1.FilesRecovered + spider1.FilesLost; got != spider1.JournalLost {
		t.Fatalf("recovery accounting: %d + %d != %d journal entries lost",
			spider1.FilesRecovered, spider1.FilesLost, spider1.JournalLost)
	}
	rate := float64(spider1.FilesRecovered) / float64(spider1.FilesRecovered+spider1.FilesLost)
	if rate < 0.94 || rate > 0.96 {
		t.Fatalf("recovery rate = %.3f, want ~0.95", rate)
	}
	if spider2.GroupsFailed != 0 {
		t.Fatalf("Spider II layout lost %d groups; should tolerate", spider2.GroupsFailed)
	}
}
