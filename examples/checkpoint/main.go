// Checkpoint: the workload Spider II was sized for. Runs a Titan-style
// defensive checkpoint on a scaled namespace and compares against the
// paper's sizing rule (75% of 600 TB in 6 minutes -> 1 TB/s).
package main

import (
	"fmt"

	"spiderfs/internal/center"
	"spiderfs/internal/procure"
	"spiderfs/internal/sim"
	"spiderfs/internal/workload"
)

func main() {
	// The RFP math.
	req := procure.CheckpointBandwidth(600e12, 0.75, 6*sim.Minute)
	fmt.Printf("requirement: dump %.0f TB in %v -> %.2f TB/s\n", 0.75*600, 6*sim.Minute, req/1e12)
	fmt.Printf("random-I/O derated target: %.0f GB/s (drives deliver 20-25%% of peak when random)\n\n",
		procure.RandomDerate(1e12, 0.24)/1e9)

	// Simulate at 1/6 hardware scale: 3 SSUs, 168 OSTs, 1,680 drives.
	scale := 6
	c := center.New(center.Config{Scale: scale, Namespaces: 1, Seed: 7})
	fs := c.Namespaces[0]
	fmt.Printf("simulated namespace: %d SSUs, %d OSTs, %d drives\n",
		len(fs.Ctrls), len(fs.OSTs), len(fs.OSTs)*10)

	// 512 writer aggregates, each standing for ~36 real ranks, dump
	// proportional memory.
	res := workload.RunCheckpoint(fs, workload.CheckpointConfig{
		Writers:      512,
		BytesPerRank: 128 << 20,
	})
	fmt.Printf("checkpoint: %.1f GiB in %v -> %.1f GB/s at 1/%d scale\n",
		float64(res.BytesMoved)/(1<<30), res.Duration, res.AggregateBps/1e9, scale)
	fmt.Printf("full-system extrapolation: %.0f GB/s sequential class\n",
		res.AggregateBps*float64(scale)/1e9)

	full := res.AggregateBps * float64(scale)
	window := sim.FromSeconds(0.75 * 600e12 / full)
	fmt.Printf("time to dump 75%% of Titan memory at that rate: %v (target: 6 min)\n", window)
}
