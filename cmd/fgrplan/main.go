// Command fgrplan computes and renders the Titan I/O router placement
// (the Fig. 2 map) and reports the placement quality metrics OLCF
// optimized: mean client-to-router distance with and without the FGR
// zone restriction.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"spiderfs/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("fgrplan", flag.ContinueOnError)
	flags.SetOutput(stderr)
	modules := flags.Int("modules", 110, "I/O modules to place (4 routers each)")
	groups := flags.Int("groups", 9, "router groups (each serves 4 IB leaf switches)")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *groups < 1 {
		fmt.Fprintln(stderr, "fgrplan: need at least one router group")
		return 2
	}
	if *modules < *groups {
		fmt.Fprintln(stderr, "fgrplan: need at least one module per group")
		return 2
	}
	p := topology.PlaceRouters(topology.TitanCabinets(), topology.TitanTorus(), *modules, *groups)
	fmt.Fprint(stdout, p.RenderXYMap())
	fmt.Fprintf(stdout, "\nmean client->nearest-router distance (any router):   %.2f hops\n",
		p.MeanClientRouterDistance(false))
	fmt.Fprintf(stdout, "mean client->nearest-router distance (FGR own zone): %.2f hops\n",
		p.MeanClientRouterDistance(true))

	// Contrast with a clumped placement to show what the optimization buys.
	clumped := p
	clumped.Modules = append([]topology.IOModule(nil), p.Modules...)
	for i := range clumped.Modules {
		clumped.Modules[i].Coord = topology.Coord{X: 0, Y: 0, Z: i % 24}
	}
	fmt.Fprintf(stdout, "clumped placement (all modules in one cabinet column): %.2f hops\n",
		clumped.MeanClientRouterDistance(false))
	return 0
}
