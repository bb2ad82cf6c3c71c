package netsim

import (
	"strconv"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/topology"
)

// FabricConfig sets the link capacities of the end-to-end I/O path.
// Defaults mirror the Titan/Spider II deployment: Gemini torus links of
// a few GB/s with a slower Y dimension, LNET routers forwarding ~2.8
// GB/s each, and FDR InfiniBand at ~6 GB/s per port.
type FabricConfig struct {
	Torus topology.Torus

	GeminiXBps   float64
	GeminiYBps   float64
	GeminiZBps   float64
	InjectBps    float64 // compute node NIC injection
	RouterBps    float64 // LNET router forwarding capacity
	IBPortBps    float64 // router/OSS <-> leaf switch port
	CoreTrunkBps float64 // leaf <-> core aggregate trunk

	GeminiLatency sim.Time
	IBLatency     sim.Time
}

// Spider2Fabric returns the production-like configuration.
func Spider2Fabric() FabricConfig {
	return FabricConfig{
		Torus:         topology.TitanTorus(),
		GeminiXBps:    9.4e9,
		GeminiYBps:    4.7e9, // Gemini's Y dimension has half the links
		GeminiZBps:    9.4e9,
		InjectBps:     2.9e9,
		RouterBps:     2.8e9,
		IBPortBps:     6.0e9,
		CoreTrunkBps:  40e9,
		GeminiLatency: 2 * sim.Microsecond,
		IBLatency:     1 * sim.Microsecond,
	}
}

// Fabric is the built network: torus links, injection links, router
// forwarding links, and the two-tier InfiniBand SAN. OSS endpoints are
// identified by index; each OSS attaches to one leaf switch.
type Fabric struct {
	Cfg       FabricConfig
	Net       *Network
	Placement topology.Placement

	// gem[nodeIdx][dir] with dir 0..5 = +x,-x,+y,-y,+z,-z.
	gem    [][]*Link
	inject []*Link

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

// linkName is a link's name in compact form. A link made by NewLink
// keeps the string it was given; a fabric link keeps its kind and
// indices, and String renders the name only when someone reads it, so
// building a Spider II-scale fabric formats no strings.
type linkName struct {
	s       string // the name of a linkNamed link
	kind    linkKind
	dir     uint8 // linkGemini: dirXPlus..dirZMinus
	a, b, c int32 // coordinates (x, y, z) or indices, per kind
}

// linkKind selects a fabric link's name format.
type linkKind uint8

const (
	linkNamed     linkKind = iota // s, as given to NewLink
	linkGemini                    // gem(a,b,c)+x, one per torus direction
	linkInject                    // inj(a,b,c)
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
	case linkGemini, linkInject:
		pre := "gem("
		if nm.kind == linkInject {
			pre = "inj("
		}
		num(pre, nm.a)
		num(",", nm.b)
		num(",", nm.c)
		b = append(b, ')')
		if nm.kind == linkGemini {
			b = append(b, dirTags[nm.dir]...)
		}
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
)

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
	f.gem = make([][]*Link, n)
	f.inject = make([]*Link, n)
	for i := 0; i < n; i++ {
		c := t.CoordOf(i)
		f.gem[i] = make([]*Link, 6)
		at := linkName{a: int32(c.X), b: int32(c.Y), c: int32(c.Z)}
		// Capacities in direction order, dirXPlus through dirZMinus.
		for dir, bps := range [6]float64{cfg.GeminiXBps, cfg.GeminiXBps, cfg.GeminiYBps, cfg.GeminiYBps, cfg.GeminiZBps, cfg.GeminiZBps} {
			at.kind, at.dir = linkGemini, uint8(dir)
			f.gem[i][dir] = f.Net.newLink(at, bps, cfg.GeminiLatency)
		}
		at.kind = linkInject
		f.inject[i] = f.Net.newLink(at, cfg.InjectBps, cfg.GeminiLatency)
	}

	nRouters := 4 * len(placement.Modules)
	f.routerFwd = make([]*Link, nRouters)
	f.routerUp = make([]*Link, nRouters)
	for _, m := range placement.Modules {
		for k, rid := range m.RouterIDs {
			sw := m.Group*topology.SwitchesPerGroup + k
			f.routerFwd[rid] = f.Net.newLink(linkName{kind: linkRouterFwd, a: int32(rid)}, cfg.RouterBps, cfg.IBLatency)
			f.routerUp[rid] = f.Net.newLink(linkName{kind: linkRouterUp, a: int32(rid), b: int32(sw)}, cfg.IBPortBps, cfg.IBLatency)
		}
	}

	f.coreUp = make([]*Link, f.nLeaves)
	f.coreDown = make([]*Link, f.nLeaves)
	for s := 0; s < f.nLeaves; s++ {
		f.coreUp[s] = f.Net.newLink(linkName{kind: linkLeafCore, a: int32(s)}, cfg.CoreTrunkBps, cfg.IBLatency)
		f.coreDown[s] = f.Net.newLink(linkName{kind: linkCoreLeaf, a: int32(s)}, cfg.CoreTrunkBps, cfg.IBLatency)
	}

	f.ossLeaf = make([]int, nOSS)
	f.ossPort = make([]*Link, nOSS)
	for i := 0; i < nOSS; i++ {
		leaf := i % f.nLeaves
		f.ossLeaf[i] = leaf
		f.ossPort[i] = f.Net.newLink(linkName{kind: linkLeafOSS, a: int32(leaf), b: int32(i)}, cfg.IBPortBps, cfg.IBLatency)
	}
	return f
}

// Reset returns the fabric to its just-built state without rebuilding
// the ~68k-link topology: router failures are recovered, ARN disabled,
// stall/drop counters zeroed, the tracer and drop hook detached, and
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

// OSSLeaf returns the leaf switch an OSS attaches to.
//
//simlint:allow test-only-export read-only accessor the fabric wiring tests assert
func (f *Fabric) OSSLeaf(oss int) int { return f.ossLeaf[oss] }

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
// client->OSS paths, once per flow start, on top of it.
func (f *Fabric) geminiPath(dst []*Link, a, b topology.Coord) []*Link {
	t := f.Cfg.Torus
	cur := a
	t.Walk(a, b, func(next topology.Coord) {
		dst = append(dst, f.gem[t.Index(cur)][stepDir(t, cur, next)])
		cur = next
	})
	return dst
}

// stepDir returns the torus link direction (0..5: +x,-x,+y,-y,+z,-z —
// the per-node link ordering NewFabric builds) for the unit hop
// cur->next produced by Torus.Walk.
func stepDir(t topology.Torus, cur, next topology.Coord) int {
	switch {
	case next.X != cur.X:
		if (cur.X+1)%t.NX == next.X {
			return dirXPlus
		}
		return dirXMinus
	case next.Y != cur.Y:
		if (cur.Y+1)%t.NY == next.Y {
			return dirYPlus
		}
		return dirYMinus
	default:
		if (cur.Z+1)%t.NZ == next.Z {
			return dirZPlus
		}
		return dirZMinus
	}
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

// ClientPath computes the end-to-end link path from a compute client at
// coordinate c to OSS oss: injection, Gemini hops to the chosen router,
// router forwarding, router->leaf, (core crossing if leaves differ),
// leaf->OSS port.
func (f *Fabric) ClientPath(c topology.Coord, oss int, mode RouteMode, src *rng.Source) []*Link {
	rid := f.selectRouter(c, f.ossLeaf[oss], mode, src, nil)
	if rid < 0 {
		panic("netsim: no eligible router") //simlint:allow no-library-panic healthy-fabric query; failure-aware sends go through Send, which counts drops
	}
	return f.pathVia(nil, c, oss, rid)
}

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
	for _, node := range f.gem {
		for _, l := range node {
			sum += l.Utilization(now)
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
