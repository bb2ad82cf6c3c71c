// Command iorsim runs the IOR-like file-per-process benchmark against a
// simulated Spider II namespace, optionally through the full
// Gemini+InfiniBand fabric, reproducing the scaling studies of §V-C
// (Figs. 3 and 4).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"spiderfs/internal/center"
	"spiderfs/internal/netsim"
	"spiderfs/internal/sim"
	"spiderfs/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("iorsim", flag.ContinueOnError)
	flags.SetOutput(stderr)
	clients := flags.Int("clients", 128, "number of client processes")
	xfer := flags.Int64("xfer", 1<<20, "transfer size in bytes")
	wall := flags.Float64("stonewall", 5, "stonewall seconds (simulated)")
	read := flags.Bool("read", false, "read instead of write")
	fabric := flags.Bool("fabric", false, "route I/O through the Gemini+IB fabric")
	naive := flags.Bool("naive", false, "naive routing instead of FGR (with -fabric)")
	scale := flags.Int("scale", 6, "hardware scale divisor (18/scale SSUs)")
	upgraded := flags.Bool("upgraded", false, "use post-upgrade controllers")
	seed := flags.Uint64("seed", 42, "random seed")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	stoneWall := sim.FromSeconds(*wall)
	if *clients < 1 || *xfer < 1 || stoneWall <= 0 {
		fmt.Fprintln(stderr, "iorsim: -clients, -xfer and -stonewall must be positive")
		return 2
	}
	mode := netsim.RouteFGR
	if *naive {
		mode = netsim.RouteNaive
	}
	c := center.New(center.Config{
		Scale:      *scale,
		Namespaces: 1,
		UseFabric:  *fabric,
		RouteMode:  mode,
		Upgraded:   *upgraded,
		Seed:       *seed,
	})
	res := c.RunIOR(0, workload.IORConfig{
		Clients:      *clients,
		TransferSize: *xfer,
		StoneWall:    stoneWall,
		Read:         *read,
	})
	fmt.Fprintln(stdout, res)
	if *fabric {
		rep := c.Fabric.Congestion(c.Eng.Now())
		fmt.Fprintf(stdout, "fabric: max link util %.2f (%s), mean gemini util %.3f, core bytes %.2e\n",
			rep.MaxUtilization, rep.HotLink, rep.MeanGeminiUtil, rep.CoreBytes)
	}
	fs := c.Namespaces[0]
	fmt.Fprintf(stdout, "mds: %d ops, util %.2f; ctrl0 util %.2f\n",
		fs.MDS.Ops(), fs.MDS.Utilization(), fs.Ctrls[0].Utilization())
	return 0
}
