// Package chaos is the center-wide chaos campaign engine: a
// failure-domain graph over the assembled facility (disks, RAID groups,
// OSTs, OSSes, metadata servers, cables, LNET routers), a declarative
// campaign specification composing scripted and stochastic fault
// processes, and the availability accounting — each graph node's
// failures and downtime, rolled up into per-kind MTBF/MTTR, center
// availability and a degraded-throughput report. The campaign replays,
// at once, the whole fault menu of §IV: correlated enclosure losses
// during rebuild, OSS crashes with or without imperative recovery, LNET
// router death bursts with or without asymmetric router notification,
// in-place cable degradation, and metadata-server outages.
package chaos

import (
	"fmt"

	"spiderfs/internal/monitor"
	"spiderfs/internal/sim"
)

// Kind classifies a failure-domain node.
type Kind int

// Node kinds, ordered roughly bottom-up through the I/O path.
const (
	KindGroup Kind = iota // RAID-6 group (one LUN)
	KindOST
	KindOSS
	KindMDS
	KindNamespace
	KindCable // IB cable feeding a router
	KindRouter
)

func (k Kind) String() string {
	switch k {
	case KindGroup:
		return "raid-group"
	case KindOST:
		return "ost"
	case KindOSS:
		return "oss"
	case KindMDS:
		return "mds"
	case KindNamespace:
		return "namespace"
	case KindCable:
		return "cable"
	case KindRouter:
		return "router"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ComponentStats is one component's availability record over a campaign
// window: how often it failed and how long it was out of service.
type ComponentStats struct {
	Name     string
	Kind     Kind
	Failures int
	Downtime sim.Time
}

// Node is one component in the failure-domain graph. A node is down
// while it has at least one active root cause: itself (a direct fault)
// or any failed node it transitively depends on. Tracking the full
// cause set, rather than a boolean, makes overlapping faults compose
// correctly — an OST whose OSS crashed while its RAID group was lost
// stays down until both causes clear — and handles diamond-shaped
// dependency patterns without double counting. Each down transition is
// one failure, and the time until the cause set empties is downtime.
type Node struct {
	ComponentStats

	dependents []*Node         // nodes that depend on this one, insertion order
	causes     map[string]bool // made on the node's first fault
	downSince  sim.Time        // start of the current outage, while down
}

// Down reports whether the node is currently unavailable.
func (n *Node) Down() bool { return len(n.causes) > 0 }

// Graph is the failure-domain graph for one simulated center.
type Graph struct {
	eng   *sim.Engine
	nodes map[string]*Node
	order []*Node

	// Events, when set, receives one cascade event for every node taken
	// down by a fault in a component it depends on (the injected fault
	// itself is the injector's event to report).
	Events func(monitor.Event)

	// Cascades counts dependent nodes taken down by propagation.
	Cascades int
}

// NewGraph builds an empty graph on eng, whose clock times outages.
func NewGraph(eng *sim.Engine) *Graph {
	return &Graph{eng: eng, nodes: map[string]*Node{}}
}

// Add registers a node depending on the named, previously added nodes.
// Dependencies must form a DAG (enforced by the add-before-use order).
func (g *Graph) Add(name string, kind Kind, deps ...string) {
	if _, dup := g.nodes[name]; dup {
		panic(fmt.Sprintf("chaos: duplicate node %q", name)) //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	n := &Node{ComponentStats: ComponentStats{Name: name, Kind: kind}}
	for _, d := range deps {
		dn := g.nodes[d]
		if dn == nil {
			panic(fmt.Sprintf("chaos: node %q depends on unknown %q", name, d)) //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
		}
		dn.dependents = append(dn.dependents, n)
	}
	g.nodes[name] = n
	g.order = append(g.order, n)
}

// Down reports whether the named node is currently unavailable. Unknown
// names are up (the graph only tracks components with failure modes).
func (g *Graph) Down(name string) bool {
	n := g.nodes[name]
	return n != nil && n.Down()
}

// Fail injects a direct fault into the named node. The fault cascades:
// every transitive dependent gains this node as an active root cause
// and, if it was up, goes down — charged a failure and surfaced as a
// cascade event. Failing an already-failed node is a no-op.
func (g *Graph) Fail(name string) {
	n := g.nodes[name]
	if n == nil {
		panic(fmt.Sprintf("chaos: Fail unknown node %q", name)) //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	g.addCause(n, name, true)
}

// Recover clears the named node's direct fault. Dependents lose this
// root cause and come back up once their cause sets empty.
func (g *Graph) Recover(name string) {
	n := g.nodes[name]
	if n == nil {
		panic(fmt.Sprintf("chaos: Recover unknown node %q", name)) //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	g.removeCause(n, name)
}

func (g *Graph) addCause(n *Node, cause string, root bool) {
	if n.causes[cause] {
		// Already reached through another dependency path (diamond): the
		// entire downstream of n carries this cause already.
		return
	}
	wasDown := n.Down()
	if n.causes == nil {
		n.causes = map[string]bool{}
	}
	n.causes[cause] = true
	if !wasDown {
		n.Failures++
		n.downSince = g.eng.Now()
		if !root {
			g.Cascades++
			if g.Events != nil {
				g.Events(monitor.Event{
					At: g.eng.Now(), Component: n.Name,
					Class: monitor.Software, Kind: "cascade-offline",
				})
			}
		}
	}
	for _, d := range n.dependents {
		g.addCause(d, cause, false)
	}
}

func (g *Graph) removeCause(n *Node, cause string) {
	if !n.causes[cause] {
		return
	}
	delete(n.causes, cause)
	if !n.Down() {
		n.Downtime += g.eng.Now() - n.downSince
	}
	for _, d := range n.dependents {
		g.removeCause(d, cause)
	}
}

// Close settles open outages at the current time (the end of the
// campaign window). Nodes still down stay down; calling Close again
// later accrues only the additional time.
func (g *Graph) Close() {
	now := g.eng.Now()
	for _, n := range g.order {
		if n.Down() {
			n.Downtime += now - n.downSince
			n.downSince = now
		}
	}
}

// Stats returns a copy of every node's record, in insertion order
// (deterministic).
func (g *Graph) Stats() []ComponentStats {
	out := make([]ComponentStats, len(g.order))
	for i, n := range g.order {
		out[i] = n.ComponentStats
	}
	return out
}

// downCount returns how many nodes of the given kind are currently down.
func (g *Graph) downCount(kind Kind) int {
	c := 0
	for _, n := range g.order {
		if n.Kind == kind && n.Down() {
			c++
		}
	}
	return c
}
