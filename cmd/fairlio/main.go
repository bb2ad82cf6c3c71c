// Command fairlio is the block-level acquisition benchmark (§III-B): it
// drives simulated drives or RAID groups with configurable request
// size, queue depth, read/write mix, and access mode, like the fair-lio
// tool OLCF shipped to vendors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("fairlio", flag.ContinueOnError)
	flags.SetOutput(stderr)
	target := flags.String("target", "group", "benchmark target: disk | group")
	reqSize := flags.Int64("size", 1<<20, "request size in bytes")
	depth := flags.Int("depth", 8, "queue depth")
	writeFrac := flags.Float64("write", 1.0, "write fraction (0=read, 1=write)")
	random := flags.Bool("random", false, "random offsets instead of sequential")
	duration := flags.Float64("seconds", 5, "benchmark duration (simulated seconds, at most 3600)")
	seed := flags.Uint64("seed", 42, "random seed")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

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
		return fail(stderr, "unknown target %q", *target)
	}
	dur := sim.FromSeconds(*duration)
	switch {
	case *reqSize < 1:
		return fail(stderr, "-size must be positive")
	case *reqSize >= capacity:
		return fail(stderr, "-size must be below the %s capacity of %d bytes", *target, capacity)
	case *depth < 1:
		return fail(stderr, "-depth must be at least 1")
	case !(*writeFrac >= 0 && *writeFrac <= 1):
		return fail(stderr, "-write must be a fraction in [0, 1]")
	case dur <= 0:
		return fail(stderr, "-seconds must be positive")
	case dur > maxDuration:
		return fail(stderr, "-seconds must be at most %g", maxDuration.Seconds())
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
	fmt.Fprintf(stdout, "fair-lio %s %s size=%d qd=%d write=%.0f%%\n",
		*target, mode, *reqSize, *depth, *writeFrac*100)
	fmt.Fprintf(stdout, "  throughput: %8.1f MB/s\n", res.MBps())
	fmt.Fprintf(stdout, "  IOPS:       %8.0f\n", res.IOPS())
	fmt.Fprintf(stdout, "  latency:    mean %.2f ms, min %.2f, max %.2f (n=%d)\n",
		res.LatencyMs.Mean, res.LatencyMs.Min, res.LatencyMs.Max, res.LatencyMs.N)
	return 0
}

// fail reports a flag the benchmark cannot honour and returns its exit code, 2.
func fail(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "fairlio: "+format+"\n", args...)
	return 2
}
