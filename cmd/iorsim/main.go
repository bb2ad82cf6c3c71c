// Command iorsim runs the IOR-like file-per-process benchmark against a
// simulated Spider II namespace, optionally through the full
// Gemini+InfiniBand fabric, reproducing the scaling studies of §V-C
// (Figs. 3 and 4).
package main

import (
	"flag"
	"fmt"
	"os"

	"spiderfs/internal/center"
	"spiderfs/internal/netsim"
	"spiderfs/internal/sim"
	"spiderfs/internal/workload"
)

func main() {
	clients := flag.Int("clients", 128, "number of client processes")
	xfer := flag.Int64("xfer", 1<<20, "transfer size in bytes")
	wall := flag.Float64("stonewall", 5, "stonewall seconds (simulated)")
	read := flag.Bool("read", false, "read instead of write")
	fabric := flag.Bool("fabric", false, "route I/O through the Gemini+IB fabric")
	naive := flag.Bool("naive", false, "naive routing instead of FGR (with -fabric)")
	scale := flag.Int("scale", 6, "hardware scale divisor (18/scale SSUs)")
	upgraded := flag.Bool("upgraded", false, "use post-upgrade controllers")
	seed := flag.Uint64("seed", 42, "random seed")
	flag.Parse()

	stoneWall := sim.FromSeconds(*wall)
	if *clients < 1 || *xfer < 1 || stoneWall <= 0 {
		fmt.Fprintln(os.Stderr, "iorsim: -clients, -xfer and -stonewall must be positive")
		os.Exit(2)
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
	fmt.Println(res)
	if *fabric {
		rep := c.Fabric.Congestion(c.Eng.Now())
		fmt.Printf("fabric: max link util %.2f (%s), mean gemini util %.3f, core bytes %.2e\n",
			rep.MaxUtilization, rep.HotLink, rep.MeanGeminiUtil, rep.CoreBytes)
	}
	fs := c.Namespaces[0]
	fmt.Printf("mds: %d ops, util %.2f; ctrl0 util %.2f\n",
		fs.MDS.Ops(), fs.MDS.Utilization(), fs.Ctrls[0].Utilization())
}
