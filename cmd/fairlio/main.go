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

// maxDuration caps -seconds at one simulated hour, 720 times the default
// run. sim.FromSeconds saturates a huge value at sim.MaxTime, a run that
// would never finish.
const maxDuration = sim.Hour

func main() {
	target := flag.String("target", "group", "benchmark target: disk | group")
	reqSize := flag.Int64("size", 1<<20, "request size in bytes")
	depth := flag.Int("depth", 8, "queue depth")
	writeFrac := flag.Float64("write", 1.0, "write fraction (0=read, 1=write)")
	random := flag.Bool("random", false, "random offsets instead of sequential")
	duration := flag.Float64("seconds", 5, "benchmark duration (simulated seconds, at most 3600)")
	seed := flag.Uint64("seed", 42, "random seed")
	flag.Parse()

	dcfg := disk.NLSAS2TB()
	var capacity int64
	switch *target {
	case "disk":
		capacity = dcfg.Capacity
	case "group":
		// A LUN holds one stripe per chunk of a member drive.
		gcfg := raid.Spider2Group()
		capacity = dcfg.Capacity / gcfg.ChunkSize * gcfg.StripeDataSize()
	default:
		fail("unknown target %q", *target)
	}
	dur := sim.FromSeconds(*duration)
	switch {
	case *reqSize < 1:
		fail("-size must be positive")
	case *reqSize >= capacity:
		fail("-size must be below the %s capacity of %d bytes", *target, capacity)
	case *depth < 1:
		fail("-depth must be at least 1")
	case !(*writeFrac >= 0 && *writeFrac <= 1):
		fail("-write must be a fraction in [0, 1]")
	case dur <= 0:
		fail("-seconds must be positive")
	case dur > maxDuration:
		fail("-seconds must be at most %g", maxDuration.Seconds())
	}

	eng := sim.NewEngine()
	src := rng.New(*seed)
	cfg := workload.FairLIOConfig{
		RequestSize: *reqSize,
		QueueDepth:  *depth,
		WriteFrac:   *writeFrac,
		Random:      *random,
		Duration:    dur,
	}
	var res workload.Result
	if *target == "disk" {
		d := disk.New(eng, 0, dcfg, disk.Nominal(), src.Split("disk"))
		res = workload.RunFairLIODisk(eng, d, cfg, src.Split("io"))
	} else {
		g := raid.BuildGroups(eng, 1, dcfg, src.Split("grp"))[0]
		res = workload.RunFairLIOGroup(eng, g, cfg, src.Split("io"))
	}

	mode := "sequential"
	if *random {
		mode = "random"
	}
	fmt.Printf("fair-lio %s %s size=%d qd=%d write=%.0f%%\n",
		*target, mode, *reqSize, *depth, *writeFrac*100)
	fmt.Printf("  throughput: %8.1f MB/s\n", res.MBps())
	fmt.Printf("  IOPS:       %8.0f\n", res.IOPS())
	fmt.Printf("  latency:    mean %.2f ms, min %.2f, max %.2f (n=%d)\n",
		res.LatencyMs.Mean, res.LatencyMs.Min, res.LatencyMs.Max, res.LatencyMs.N)
}

// fail reports a flag the benchmark cannot honour and exits 2.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fairlio: "+format+"\n", args...)
	os.Exit(2)
}
