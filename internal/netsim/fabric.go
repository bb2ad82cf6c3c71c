package netsim

import (
	"strconv"

	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/topology"
)

// FabricConfig sets the shape of the end-to-end I/O path. Its one knob
// is the torus: the full Titan machine, or the miniature the small
// center and the unit tests route over.
type FabricConfig struct {
	Torus topology.Torus
}

// Link capacities and latencies of the Titan/Spider II deployment:
// Gemini torus links of a few GB/s with a slower Y dimension, LNET
// routers forwarding ~2.8 GB/s each, and FDR InfiniBand at ~6 GB/s per
// port.
const (
	geminiXBps   = 9.4e9
	geminiYBps   = 4.7e9 // Gemini's Y dimension has half the links
	geminiZBps   = 9.4e9
	injectBps    = 2.9e9 // compute node NIC injection
	routerBps    = 2.8e9 // LNET router forwarding capacity
	ibPortBps    = 6.0e9 // router/OSS <-> leaf switch port
	coreTrunkBps = 40e9  // leaf <-> core aggregate trunk

	geminiLatency = 2 * sim.Microsecond
	ibLatency     = 1 * sim.Microsecond
)

// Spider2Fabric returns the production configuration: Titan's full
// torus.
func Spider2Fabric() FabricConfig {
	return FabricConfig{Torus: topology.TitanTorus()}
}

// Fabric is the built network: torus links, injection links, router
// forwarding links, and the two-tier InfiniBand SAN. OSS endpoints are
// identified by index; each OSS attaches to one leaf switch. All its
// links come from one slab chunk, torus links first: node i's six
// Gemini links, then its injection link, are torus[7i] to torus[7i+6]
// and ids 7i to 7i+6, so routes index the slab and names render from
// the id. The fabric's other links are named from a presized table of
// compact descriptors in the network.
type Fabric struct {
	Cfg       FabricConfig
	Net       *Network
	Placement topology.Placement

	// torus is the first linksPerNode*Nodes records of the slab: node
	// i's links in direction order dirXPlus..dirZMinus, then injectSlot.
	torus []Link

	routerFwd []*Link // per router ID
	routerUp  []*Link // router -> its leaf switch port
	leafDown  []*Link // leaf switch -> attached OSS port group (shared per OSS)

	ossLeaf []int   // OSS index -> leaf switch
	ossPort []*Link // leaf -> OSS port

	coreUp   []*Link // leaf -> core
	coreDown []*Link // core -> leaf

	nLeaves int
	eng     *sim.Engine

	// groupMods caches Placement.ModulesInGroup per group: the FGR
	// router selection runs once per RPC, so it must not allocate.
	groupMods [][]topology.IOModule

	// Router failure state (see routerfail.go).
	failedRouters map[int]bool
	arn           bool
	StalledSends  uint64
	StallTime     sim.Time
	// DroppedFlows counts sends abandoned because no eligible router
	// remained (the whole fleet dead or blacklisted).
	DroppedFlows uint64

	// Tracer, when set, records fabric spans for sampled requests (and
	// self-samples raw sends that arrive with no request context). It
	// must be bound to this fabric's engine. See internal/spantrace.
	Tracer *spantrace.Tracer
}

// linkName is the name of a link outside a fabric's torus, in compact
// form. A link made by NewLink keeps the string it was given; a fabric
// link keeps its kind and indices, and String renders the name only
// when someone reads it, so building a Spider II-scale fabric formats
// no strings.
type linkName struct {
	s    string // the name of a linkNamed link
	kind linkKind
	a, b int32 // indices, per kind
}

// linkKind selects a fabric link's name format.
type linkKind uint8

const (
	linkNamed     linkKind = iota // s, as given to NewLink
	linkRouterFwd                 // rtr<a>-fwd
	linkRouterUp                  // rtr<a>-sw<b>
	linkLeafCore                  // leaf<a>-core
	linkCoreLeaf                  // core-leaf<a>
	linkLeafOSS                   // leaf<a>-oss<b>
)

// dirTags are the Gemini link name suffixes, indexed by direction.
var dirTags = [6]string{"+x", "-x", "+y", "-y", "+z", "-z"}

// String renders the name.
func (nm linkName) String() string {
	if nm.kind == linkNamed {
		return nm.s
	}
	var buf [32]byte
	b := buf[:0]
	num := func(prefix string, v int32) {
		b = append(b, prefix...)
		b = strconv.AppendInt(b, int64(v), 10)
	}
	switch nm.kind {
	case linkRouterFwd:
		num("rtr", nm.a)
		b = append(b, "-fwd"...)
	case linkRouterUp:
		num("rtr", nm.a)
		num("-sw", nm.b)
	case linkLeafCore:
		num("leaf", nm.a)
		b = append(b, "-core"...)
	case linkCoreLeaf:
		num("core-leaf", nm.a)
	case linkLeafOSS:
		num("leaf", nm.a)
		num("-oss", nm.b)
	}
	return string(b)
}

const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
	dirZPlus
	dirZMinus
	// injectSlot is a node's injection link, after its six Gemini links.
	injectSlot
	// linksPerNode is how many torus links each node owns.
	linksPerNode
)

// torusLinkName renders the name of torus link id on t: gem(x,y,z)+x
// for a Gemini link, inj(x,y,z) for an injection link.
func torusLinkName(t topology.Torus, id int) string {
	c, slot := t.CoordOf(id/linksPerNode), id%linksPerNode
	pre := "gem("
	if slot == injectSlot {
		pre = "inj("
	}
	var buf [32]byte
	b := append(buf[:0], pre...)
	b = strconv.AppendInt(b, int64(c.X), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.Y), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.Z), 10)
	b = append(b, ')')
	if slot != injectSlot {
		b = append(b, dirTags[slot]...)
	}
	return string(b)
}

// NewFabric builds the full I/O fabric. nOSS object storage servers are
// attached round-robin to the placement's leaf switches
// (placement.Groups * topology.SwitchesPerGroup leaves).
func NewFabric(eng *sim.Engine, cfg FabricConfig, placement topology.Placement, nOSS int) *Fabric {
	f := &Fabric{
		Cfg:       cfg,
		Net:       NewNetwork(eng),
		Placement: placement,
		nLeaves:   placement.Groups * topology.SwitchesPerGroup,
		eng:       eng,
	}
	f.groupMods = make([][]topology.IOModule, placement.Groups)
	for g := range f.groupMods {
		f.groupMods[g] = placement.ModulesInGroup(g)
	}
	t := cfg.Torus
	n := t.Nodes()
	nRouters := 4 * len(placement.Modules)
	// Six Gemini directions and one injection link per node, named by
	// id; two links per router and per leaf, and one port per OSS, named
	// from the table.
	f.Net.torus, f.Net.torusLinks = t, int32(linksPerNode*n)
	named := 2*nRouters + 2*f.nLeaves + nOSS
	f.Net.reserve(linksPerNode*n+named, named)
	// Capacities in slot order, dirXPlus through injectSlot.
	caps := [linksPerNode]float64{geminiXBps, geminiXBps, geminiYBps, geminiYBps, geminiZBps, geminiZBps, injectBps}
	for i := 0; i < n; i++ {
		for _, bps := range caps {
			f.Net.newLink(linkName{}, bps, geminiLatency)
		}
	}
	f.torus = f.Net.slab[: linksPerNode*n : linksPerNode*n]

	f.routerFwd = make([]*Link, nRouters)
	f.routerUp = make([]*Link, nRouters)
	for _, m := range placement.Modules {
		for k, rid := range m.RouterIDs {
			sw := m.Group*topology.SwitchesPerGroup + k
			f.routerFwd[rid] = f.Net.newLink(linkName{kind: linkRouterFwd, a: int32(rid)}, routerBps, ibLatency)
			f.routerUp[rid] = f.Net.newLink(linkName{kind: linkRouterUp, a: int32(rid), b: int32(sw)}, ibPortBps, ibLatency)
		}
	}

	f.coreUp = make([]*Link, f.nLeaves)
	f.coreDown = make([]*Link, f.nLeaves)
	for s := 0; s < f.nLeaves; s++ {
		f.coreUp[s] = f.Net.newLink(linkName{kind: linkLeafCore, a: int32(s)}, coreTrunkBps, ibLatency)
		f.coreDown[s] = f.Net.newLink(linkName{kind: linkCoreLeaf, a: int32(s)}, coreTrunkBps, ibLatency)
	}

	f.ossLeaf = make([]int, nOSS)
	f.ossPort = make([]*Link, nOSS)
	for i := 0; i < nOSS; i++ {
		leaf := i % f.nLeaves
		f.ossLeaf[i] = leaf
		f.ossPort[i] = f.Net.newLink(linkName{kind: linkLeafOSS, a: int32(leaf), b: int32(i)}, ibPortBps, ibLatency)
	}
	return f
}

// Reset returns the fabric to its just-built state without rebuilding
// the ~68k-link topology: router failures are recovered, ARN disabled,
// stall/drop counters zeroed, the tracer detached, and
// the underlying network reset (degraded cables restored, link and flow
// counters cleared). Call it after the owning engine has drained and
// been Reset, so the capacity integrals restart at time zero; a reset
// with flows still in flight is refused. This is the seam that lets the
// warm pool (internal/serve) reuse a full-scale fabric across sessions
// while reproducing fresh-build fingerprints bit for bit.
func (f *Fabric) Reset() error {
	if err := f.Net.Reset(); err != nil {
		return err
	}
	f.failedRouters = nil
	f.arn = false
	f.StalledSends = 0
	f.StallTime = 0
	f.DroppedFlows = 0
	f.Tracer = nil
	return nil
}

// NumOSS returns the number of attached object storage servers.
func (f *Fabric) NumOSS() int { return len(f.ossPort) }

// NumRouters returns the number of LNET routers.
func (f *Fabric) NumRouters() int { return len(f.routerFwd) }

// routerSwitch returns the leaf switch router rid attaches to.
func (f *Fabric) routerSwitch(rid int) int {
	m := f.Placement.Modules[rid/4]
	return m.Group*topology.SwitchesPerGroup + rid%4
}

// geminiPath appends the dimension-ordered torus links from a to b to
// dst and allocates nothing beyond dst's own growth; pathVia builds
// client->OSS paths, once per flow start, on top of it. Each axis is
// one loop over its signed hop count from Torus.Hops, which owns the
// wraparound tie rule.
func (f *Fabric) geminiPath(dst []*Link, a, b topology.Coord) []*Link {
	t := f.Cfg.Torus
	h := t.Hops(a, b)
	i := t.Index(a)
	dst, i = f.axisPath(dst, i, a.X, h.X, t.NX, t.NY*t.NZ, dirXPlus)
	dst, i = f.axisPath(dst, i, a.Y, h.Y, t.NY, t.NZ, dirYPlus)
	dst, _ = f.axisPath(dst, i, a.Z, h.Z, t.NZ, 1, dirZPlus)
	return dst
}

// axisPath appends the links of h signed hops along one axis of n
// positions, starting at node index i whose coordinate on that axis is
// p, and returns dst and the node index it ends on. stride is the
// index distance between neighbours on the axis; plus is the axis's +
// direction, whose - direction is plus+1.
func (f *Fabric) axisPath(dst []*Link, i, p, h, n, stride, plus int) ([]*Link, int) {
	dir, step, wrap, edge := plus, stride, (1-n)*stride, n-1-p
	if h < 0 {
		h, dir, step, wrap, edge = -h, plus+1, -stride, (n-1)*stride, p
	}
	for k := 0; k < h; k++ {
		dst = append(dst, &f.torus[linksPerNode*i+dir])
		if k == edge {
			i += wrap
		} else {
			i += step
		}
	}
	return dst, i
}

// RouteMode selects the routing discipline.
type RouteMode int

const (
	// RouteFGR is fine-grained routing: pick the router attached to the
	// destination's leaf switch whose module is topologically closest to
	// the client (Lesson 14's congestion avoidance).
	RouteFGR RouteMode = iota
	// RouteNaive picks a uniformly random router; traffic whose router
	// leaf differs from the destination leaf crosses the core switches.
	RouteNaive
)

// CongestionReport summarizes fabric hot spots after a run.
type CongestionReport struct {
	MaxUtilization float64
	HotLink        string
	MeanGeminiUtil float64
	CoreBytes      float64 // bytes that crossed the core tier
}

// Congestion computes the report at the current simulation time.
func (f *Fabric) Congestion(now sim.Time) CongestionReport {
	r := CongestionReport{}
	r.MaxUtilization, r.HotLink = f.Net.MaxLinkUtilization()
	var sum float64
	var n int
	for i := range f.torus {
		if i%linksPerNode != injectSlot {
			sum += f.Net.utilization(&f.torus[i], now)
			n++
		}
	}
	if n > 0 {
		r.MeanGeminiUtil = sum / float64(n)
	}
	for _, l := range f.coreUp {
		r.CoreBytes += l.BytesCarried
	}
	for _, l := range f.coreDown {
		r.CoreBytes += l.BytesCarried
	}
	return r
}
