// Command fgrplan computes and renders the Titan I/O router placement
// (the Fig. 2 map) and reports the placement quality metrics OLCF
// optimized: mean client-to-router distance with and without the FGR
// zone restriction.
package main

import (
	"flag"
	"fmt"
	"os"

	"spiderfs/internal/topology"
)

func main() {
	modules := flag.Int("modules", 110, "I/O modules to place (4 routers each)")
	groups := flag.Int("groups", 9, "router groups (each serves 4 IB leaf switches)")
	flag.Parse()

	if *groups < 1 {
		fmt.Fprintln(os.Stderr, "fgrplan: need at least one router group")
		os.Exit(2)
	}
	if *modules < *groups {
		fmt.Fprintln(os.Stderr, "fgrplan: need at least one module per group")
		os.Exit(2)
	}
	p := topology.PlaceRouters(topology.TitanCabinets(), topology.TitanTorus(), *modules, *groups)
	fmt.Print(p.RenderXYMap())
	fmt.Printf("\nmean client->nearest-router distance (any router):   %.2f hops\n",
		p.MeanClientRouterDistance(false))
	fmt.Printf("mean client->nearest-router distance (FGR own zone): %.2f hops\n",
		p.MeanClientRouterDistance(true))

	// Contrast with a clumped placement to show what the optimization buys.
	clumped := p
	clumped.Modules = append([]topology.IOModule(nil), p.Modules...)
	for i := range clumped.Modules {
		clumped.Modules[i].Coord = topology.Coord{X: 0, Y: 0, Z: i % 24}
	}
	fmt.Printf("clumped placement (all modules in one cabinet column): %.2f hops\n",
		clumped.MeanClientRouterDistance(false))
}
