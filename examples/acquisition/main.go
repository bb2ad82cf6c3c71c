// Acquisition: the §III process end to end. Derive the RFP targets from
// the checkpoint law, run the vendor benchmark suite against a candidate
// SSU's hardware, size competing proposals, and evaluate them best-value
// — the Spider II procurement in one program.
package main

import (
	"fmt"

	"spiderfs/internal/benchsuite"
	"spiderfs/internal/disk"
	"spiderfs/internal/procure"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

func main() {
	// 1. Requirements from the program targets (§III-A).
	seq := procure.CheckpointBandwidth(600e12, 0.75, 6*sim.Minute)
	rnd := procure.RandomDerate(1e12, 0.24)
	capTarget := procure.CapacityTarget(770e12, 30, 0.3)
	fmt.Printf("RFP targets: %.2f TB/s sequential, %.0f GB/s random, %.1f PB capacity\n\n",
		seq/1e12, rnd/1e9, capTarget/1e15)

	// 2. The vendor benchmark suite (§III-B) against one candidate RAID
	// LUN — the numbers a bidder would return with its response.
	eng := sim.NewEngine()
	src := rng.New(7)
	g := raid.BuildGroups(eng, 1, disk.NLSAS2TB(), src.Split("grp"))[0]
	sweep := benchsuite.Sweep{
		RequestSizes: []int64{64 << 10, 1 << 20},
		QueueDepths:  []int{8},
		WriteFracs:   []float64{0.6, 1.0}, // the Sec. II mix and pure write
		Random:       []bool{false, true},
		CellDuration: sim.Second,
	}
	fmt.Println("candidate LUN, fair-lio sweep (vendor response data):")
	cells := benchsuite.RunBlockLevel(eng, g, sweep, src.Split("bench"))
	fmt.Print(benchsuite.Render(cells))

	// 3. Proposals (block-storage vs appliance models, §III-A) and the
	// weighted best-value evaluation (§III-C).
	reqs := procure.Spider2Requirements()
	proposals := []procure.Proposal{
		{
			Vendor: "block-storage-co", Unit: procure.Spider2SSU(),
			Schedule: 0.9, PastPerformance: 0.9, Risk: 0.8,
			IntegrationCost: 2e6, // block storage: the center integrates
		},
		{
			Vendor: "appliance-corp",
			Unit: procure.SSU{SeqBps: 30e9, RandBps: 7e9,
				Capacity: 1.0e15, Disks: 600, PriceUSD: 1.6e6},
			Schedule: 0.95, PastPerformance: 0.85, Risk: 0.95,
		},
		{
			Vendor: "budget-array-inc",
			Unit: procure.SSU{SeqBps: 14e9, RandBps: 3e9,
				Capacity: 0.7e15, Disks: 480, PriceUSD: 0.8e6},
			Schedule: 0.7, PastPerformance: 0.6, Risk: 0.5,
			IntegrationCost: 3e6, // block storage
		},
	}
	fmt.Println("\nevaluation (best value, weighted):")
	fmt.Printf("%-18s %6s %12s %9s %7s\n", "vendor", "SSUs", "total $", "feasible", "value")
	for _, s := range procure.Evaluate(reqs, proposals, procure.DefaultWeights()) {
		fmt.Printf("%-18s %6d %11.1fM %9v %7.3f\n",
			s.Proposal.Vendor, s.Units, s.TotalUSD/1e6, s.Feasible, s.Value)
	}
	fmt.Println("\n(OLCF chose the block-storage model: design flexibility and cost savings,")
	fmt.Println(" accepting the integration risk because the team could carry it — Sec. III-C)")
}
