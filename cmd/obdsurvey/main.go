// Command obdsurvey measures object write/rewrite/read rates through
// the OST stack (controller + RAID + software overheads) like the
// obdfilter-survey tool the acquisition suite built on (§III-B).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/workload"
)

// maxRequests caps the synchronous object requests of one phase at
// 4,096 times the default run's 256. At the cap the three phases take
// about 4 s on a 2-vCPU Xeon host (1 GiB in 1 KiB requests); -rpc 1 at
// the default -total would ask for 268,435,456 requests per phase, 256
// times as many.
const maxRequests = 1 << 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("obdsurvey", flag.ContinueOnError)
	flags.SetOutput(stderr)
	total := flags.Int64("total", 256<<20, "bytes per phase")
	rpc := flags.Int64("rpc", 1<<20, "object RPC size")
	threads := flags.Int("threads", 8, "concurrent object threads")
	seed := flags.Uint64("seed", 42, "random seed")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	switch {
	case *rpc < 1:
		return fail(stderr, "-rpc must be positive")
	case *threads < 1:
		return fail(stderr, "-threads must be at least 1")
	case *total < int64(*threads):
		return fail(stderr, "-total must give each of the %d threads at least one byte", *threads)
	}
	// Each thread writes total/threads bytes in requests of at most rpc.
	perThread := *total / int64(*threads)
	if n := int64(*threads) * ((perThread-1) / *rpc + 1); n > maxRequests {
		return fail(stderr, "-total %d at -rpc %d is %d requests per phase, above %d", *total, *rpc, n, maxRequests)
	}
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(*seed))
	var file *lustre.File
	fs.Create("survey/obj", 1, func(f *lustre.File) { file = f })
	eng.Run()

	res := workload.RunObdSurvey(eng, file.Objects[0], *total, *rpc, *threads)
	fmt.Fprintf(stdout, "obdfilter-survey: total=%d MiB rpc=%d KiB threads=%d\n",
		*total>>20, *rpc>>10, *threads)
	fmt.Fprintf(stdout, "  write:   %8.1f MB/s\n", res.WriteMBps)
	fmt.Fprintf(stdout, "  rewrite: %8.1f MB/s\n", res.RewriteMBps)
	fmt.Fprintf(stdout, "  read:    %8.1f MB/s\n", res.ReadMBps)
	return 0
}

// fail reports a flag the survey cannot honour and returns its exit code, 2.
func fail(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "obdsurvey: "+format+"\n", args...)
	return 2
}
