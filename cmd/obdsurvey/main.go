// Command obdsurvey measures object write/rewrite/read rates through
// the OST stack (controller + RAID + software overheads) like the
// obdfilter-survey tool the acquisition suite built on (§III-B).
package main

import (
	"flag"
	"fmt"
	"os"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/workload"
)

func main() {
	total := flag.Int64("total", 256<<20, "bytes per phase")
	rpc := flag.Int64("rpc", 1<<20, "object RPC size")
	threads := flag.Int("threads", 8, "concurrent object threads")
	seed := flag.Uint64("seed", 42, "random seed")
	flag.Parse()

	switch {
	case *rpc < 1:
		fail("-rpc must be positive")
	case *threads < 1:
		fail("-threads must be at least 1")
	case *total < int64(*threads):
		fail("-total must give each of the %d threads at least one byte", *threads)
	}
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(*seed))
	var file *lustre.File
	fs.Create("survey/obj", 1, func(f *lustre.File) { file = f })
	eng.Run()

	res := workload.RunObdSurvey(eng, file.Objects[0], *total, *rpc, *threads)
	fmt.Printf("obdfilter-survey: total=%d MiB rpc=%d KiB threads=%d\n",
		*total>>20, *rpc>>10, *threads)
	fmt.Printf("  write:   %8.1f MB/s\n", res.WriteMBps)
	fmt.Printf("  rewrite: %8.1f MB/s\n", res.RewriteMBps)
	fmt.Printf("  read:    %8.1f MB/s\n", res.ReadMBps)
}

// fail reports a flag the survey cannot honour and exits 2.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "obdsurvey: "+format+"\n", args...)
	os.Exit(2)
}
