// Command fairlio is the block-level acquisition benchmark (§III-B): it
// drives simulated drives or RAID groups with configurable request
// size, queue depth, read/write mix, and access mode, like the fair-lio
// tool OLCF shipped to vendors.
package main

import (
	"flag"
	"fmt"
	"os"

	"spiderfs/internal/disk"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/workload"
)

func main() {
	target := flag.String("target", "group", "benchmark target: disk | group")
	reqSize := flag.Int64("size", 1<<20, "request size in bytes")
	depth := flag.Int("depth", 8, "queue depth")
	writeFrac := flag.Float64("write", 1.0, "write fraction (0=read, 1=write)")
	random := flag.Bool("random", false, "random offsets instead of sequential")
	duration := flag.Float64("seconds", 5, "benchmark duration (simulated seconds)")
	seed := flag.Uint64("seed", 42, "random seed")
	flag.Parse()

	if *reqSize < 1 {
		fmt.Fprintln(os.Stderr, "fairlio: -size must be positive")
		os.Exit(2)
	}
	eng := sim.NewEngine()
	src := rng.New(*seed)
	cfg := workload.FairLIOConfig{
		RequestSize: *reqSize,
		QueueDepth:  *depth,
		WriteFrac:   *writeFrac,
		Random:      *random,
		Duration:    sim.FromSeconds(*duration),
	}

	var res workload.FairLIOResult
	switch *target {
	case "disk":
		d := disk.New(eng, 0, disk.NLSAS2TB(), disk.Nominal(), src.Split("disk"))
		res = workload.RunFairLIODisk(eng, d, cfg, src.Split("io"))
	case "group":
		g := raid.BuildGroups(eng, 1, disk.NLSAS2TB(), src.Split("grp"))[0]
		res = workload.RunFairLIOGroup(eng, g, cfg, src.Split("io"))
	default:
		fmt.Fprintf(os.Stderr, "fairlio: unknown target %q\n", *target)
		os.Exit(2)
	}

	mode := "sequential"
	if *random {
		mode = "random"
	}
	fmt.Printf("fair-lio %s %s size=%d qd=%d write=%.0f%%\n",
		*target, mode, *reqSize, *depth, *writeFrac*100)
	fmt.Printf("  throughput: %8.1f MB/s\n", res.MBps)
	fmt.Printf("  IOPS:       %8.0f\n", res.IOPS)
	fmt.Printf("  latency:    mean %.2f ms, min %.2f, max %.2f (n=%d)\n",
		res.LatencyMs.Mean, res.LatencyMs.Min, res.LatencyMs.Max, res.LatencyMs.N)
}
