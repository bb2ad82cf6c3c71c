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
	"slices"

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

	dependents []*Node  // nodes that depend on this one, insertion order
	causes     []*Node  // the failed roots keeping the node down, each once
	downSince  sim.Time // start of the current outage, while down
}

// Down reports whether the node is currently unavailable.
func (n *Node) Down() bool { return len(n.causes) > 0 }

// Graph is the failure-domain graph for one simulated center.
type Graph struct {
	eng   *sim.Engine
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
	return &Graph{eng: eng}
}

// Add registers a node depending on deps, nodes this graph returned
// earlier, and returns it. Dependencies form a DAG by construction: a
// node can only depend on nodes that exist before it.
func (g *Graph) Add(name string, kind Kind, deps ...*Node) *Node {
	n := &Node{ComponentStats: ComponentStats{Name: name, Kind: kind}}
	for _, d := range deps {
		d.dependents = append(d.dependents, n)
	}
	g.order = append(g.order, n)
	return n
}

// Fail injects a direct fault into n. The fault cascades: every
// transitive dependent gains n as an active root cause and, if it was
// up, goes down — charged a failure and surfaced as a cascade event.
// Failing an already-failed node is a no-op.
func (g *Graph) Fail(n *Node) { g.addCause(n, n, true) }

// Recover clears n's direct fault. Dependents lose this root cause and
// come back up once their cause sets empty.
func (g *Graph) Recover(n *Node) { g.removeCause(n, n) }

func (g *Graph) addCause(n, root *Node, direct bool) {
	if slices.Contains(n.causes, root) {
		// Already reached through another dependency path (diamond): the
		// entire downstream of n carries this cause already.
		return
	}
	wasDown := n.Down()
	n.causes = append(n.causes, root)
	if !wasDown {
		n.Failures++
		n.downSince = g.eng.Now()
		if !direct {
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
		g.addCause(d, root, false)
	}
}

func (g *Graph) removeCause(n, root *Node) {
	i := slices.Index(n.causes, root)
	if i < 0 {
		return
	}
	last := len(n.causes) - 1
	n.causes[i] = n.causes[last]
	n.causes[last] = nil
	n.causes = n.causes[:last]
	if !n.Down() {
		n.Downtime += g.eng.Now() - n.downSince
	}
	for _, d := range n.dependents {
		g.removeCause(d, root)
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
