package procure

import (
	"math"
	"testing"

	"spiderfs/internal/sim"
)

func TestCheckpointBandwidthSpider2(t *testing.T) {
	// 75% of Titan's 600 TB in 6 minutes -> 1.25 TB/s; the paper rounds
	// the program requirement to the "1 TB/s class".
	bw := CheckpointBandwidth(600e12, 0.75, 6*sim.Minute)
	if math.Abs(bw-1.25e12)/1.25e12 > 1e-9 {
		t.Fatalf("bw = %g, want 1.25e12", bw)
	}
}

func TestRandomDerate(t *testing.T) {
	// 1 TB/s sequential at the 24% single-drive random ratio ~ 240 GB/s.
	r := RandomDerate(1e12, 0.24)
	if math.Abs(r-240e9) > 1 {
		t.Fatalf("random target = %g", r)
	}
}

func TestCapacityTargetCORALRule(t *testing.T) {
	// OLCF connected memory ~770 TB; 30x -> 23.1 PB; Spider II's 32 PB
	// exceeds it with margin.
	target := CapacityTarget(770e12, 30, 0)
	if math.Abs(target-23.1e15)/23.1e15 > 1e-9 {
		t.Fatalf("target = %g", target)
	}
	if target > 32e15 {
		t.Fatal("Spider II capacity should exceed the 30x rule")
	}
}

func TestUnitsForMeetsAllTargets(t *testing.T) {
	u := Spider2SSU()
	reqs := Spider2Requirements()
	n := UnitsFor(u, reqs.SeqBps, reqs.RandBps, reqs.Capacity)
	sys := System{Unit: u, Count: n}
	if sys.SeqBps() < reqs.SeqBps || sys.RandBps() < reqs.RandBps || sys.Capacity() < reqs.Capacity {
		t.Fatalf("%d units do not meet targets", n)
	}
	// The real system was 36 SSUs; the model should land in that
	// neighborhood.
	if n < 30 || n > 42 {
		t.Fatalf("units = %d, want ~36", n)
	}
	// Disk count should be in the 20,160 neighborhood.
	if sys.Disks() < 15000 || sys.Disks() > 25000 {
		t.Fatalf("disks = %d, want ~20160", sys.Disks())
	}
}

func TestUnitsForEdgeCases(t *testing.T) {
	u := Spider2SSU()
	if UnitsFor(u, 0, 0, 0) != 0 {
		t.Fatal("zero targets should need zero units")
	}
	if UnitsFor(u, u.SeqBps, 0, 0) != 1 {
		t.Fatal("exactly one unit's worth should need 1")
	}
	if UnitsFor(u, u.SeqBps+1, 0, 0) != 2 {
		t.Fatal("just past one unit should need 2")
	}
}

func TestEvaluateRanksBestValue(t *testing.T) {
	reqs := Spider2Requirements()
	good := Proposal{
		Vendor: "blockco", Unit: Spider2SSU(), Schedule: 0.9,
		PastPerformance: 0.9, Risk: 0.8, IntegrationCost: 2e6, // block storage
	}
	pricey := good
	pricey.Vendor = "appliancecorp"
	pricey.Unit.PriceUSD = 2.2e6
	pricey.IntegrationCost = 0 // an appliance
	pricey.Risk = 0.95

	weak := good
	weak.Vendor = "slowdisk"
	weak.Unit.SeqBps = 14e9 // needs twice the units
	weak.Unit.PriceUSD = 0.9e6

	scores := Evaluate(reqs, []Proposal{pricey, weak, good}, DefaultWeights())
	if len(scores) != 3 {
		t.Fatalf("scores = %d", len(scores))
	}
	if scores[0].Proposal.Vendor != "blockco" {
		t.Fatalf("winner = %s, want blockco (best value)", scores[0].Proposal.Vendor)
	}
	// The over-budget appliance must be infeasible and rank last.
	var appliance Score
	for _, s := range scores {
		if s.Proposal.Vendor == "appliancecorp" {
			appliance = s
		}
	}
	if appliance.Feasible {
		t.Fatalf("appliance at $%.0fM should exceed the $45M budget", appliance.TotalUSD/1e6)
	}
	if scores[len(scores)-1].Proposal.Vendor != "appliancecorp" {
		t.Fatal("infeasible proposal should sort last")
	}
}

func TestCompareModelsFavorsDataCentric(t *testing.T) {
	platforms := []Platform{
		{MemBytes: 710e12, WorkflowShareBytes: 100e12}, // titan
		{MemBytes: 30e12, WorkflowShareBytes: 20e12},   // analysis
		{MemBytes: 20e12, WorkflowShareBytes: 10e12},   // viz
		{MemBytes: 10e12, WorkflowShareBytes: 5e12},    // dtn
	}
	cmp := CompareModels(platforms, Spider2SSU(), 10e9)
	if cmp.DataCentricUSD >= cmp.MachineExclusiveUSD {
		t.Fatalf("data-centric ($%.1fM) should undercut exclusive ($%.1fM)",
			cmp.DataCentricUSD/1e6, cmp.MachineExclusiveUSD/1e6)
	}
	if cmp.MoveHoursPerDay <= 0 {
		t.Fatal("exclusive model should pay data-movement time")
	}
	if cmp.AddPlatformUSDDataCentric >= cmp.AddPlatformUSDExclusive {
		t.Fatal("adding a platform should be cheaper under data-centric")
	}
	if cmp.String() == "" {
		t.Fatal("empty comparison string")
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	cases := []func(){
		func() { CheckpointBandwidth(0, 0.5, sim.Minute) },
		func() { CheckpointBandwidth(1e12, 1.5, sim.Minute) },
		func() { RandomDerate(1e12, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}
