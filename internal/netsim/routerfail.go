package netsim

import (
	"strconv"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/topology"
)

// Router failure handling and asymmetric router notification (ARN).
// §IV-D: OLCF direct-funded "asymmetric router notification" so that
// when an LNET router dies, peers learn about it immediately instead of
// timing out against it. Without ARN, a sender that selects a dead
// router stalls for the LNET transmit timeout before retrying on
// another route.

// RouterTimeout is the stall a sender pays when it picks a dead router
// without having been notified (LNET transmit/resend timeouts of the
// era).
const RouterTimeout = 50 * sim.Second

// FailRouter marks a router dead. Whether senders avoid it immediately
// depends on NotifyFailures.
func (f *Fabric) FailRouter(rid int) {
	if f.failedRouters == nil {
		f.failedRouters = map[int]bool{}
	}
	f.failedRouters[rid] = true
}

// RecoverRouter returns a router to service.
func (f *Fabric) RecoverRouter(rid int) { delete(f.failedRouters, rid) }

// SetNotification enables asymmetric router notification: senders learn
// about dead routers immediately and route around them.
func (f *Fabric) SetNotification(on bool) { f.arn = on }

// RouterFailed reports whether rid is currently dead.
func (f *Fabric) RouterFailed(rid int) bool { return f.failedRouters[rid] }

// selectRouter picks the router for (client, destination) under the
// given mode, excluding any router in skip. It returns -1 when no
// eligible router remains.
func (f *Fabric) selectRouter(c topology.Coord, destLeaf int, mode RouteMode, src *rng.Source, skip map[int]bool) int {
	eligible := func(rid int) bool {
		if skip[rid] {
			return false
		}
		// With ARN, failures are public knowledge.
		if f.arn && f.failedRouters[rid] {
			return false
		}
		return true
	}
	switch mode {
	case RouteFGR:
		group := destLeaf / topology.SwitchesPerGroup
		mods := f.groupMods[group]
		// Nearest module whose router for this leaf is eligible.
		best, bestD := -1, 0
		for _, m := range mods {
			rid := m.RouterIDs[destLeaf%topology.SwitchesPerGroup]
			if !eligible(rid) {
				continue
			}
			d := f.Placement.Torus.Distance(c, m.Coord)
			if best < 0 || d < bestD {
				best, bestD = rid, d
			}
		}
		return best
	case RouteNaive:
		for tries := 0; tries < 4*f.NumRouters(); tries++ {
			rid := src.Intn(f.NumRouters())
			if eligible(rid) {
				return rid
			}
		}
		return -1
	default:
		panic("netsim: unknown route mode") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
}

// pathVia builds the full client->OSS link path through router rid in a
// single right-sized allocation (the path is retained by the flow until
// completion, so it cannot come from a reusable scratch buffer).
func (f *Fabric) pathVia(c topology.Coord, oss, rid int) []*Link {
	destLeaf := f.ossLeaf[oss]
	mod := f.Placement.Modules[rid/4]
	path := make([]*Link, 0, f.Cfg.Torus.Distance(c, mod.Coord)+6)
	path = append(path, f.inject[f.Cfg.Torus.Index(c)])
	path = f.geminiPath(path, c, mod.Coord)
	path = append(path, f.routerFwd[rid], f.routerUp[rid])
	if sw := f.routerSwitch(rid); sw != destLeaf {
		path = append(path, f.coreUp[sw], f.coreDown[destLeaf])
	}
	return append(path, f.ossPort[oss])
}

// StartClientFlow launches a transfer from a client to an OSS with
// router-failure semantics: if the chosen router is dead and the sender
// was not notified (no ARN), the flow stalls for RouterTimeout, the
// sender blacklists that router, and retries on another. Counters
// record the stalls so the ARN ablation can quantify the feature.
//
// When no eligible router remains (a center-wide router loss, or every
// router blacklisted after stalls), the send is dropped: DroppedFlows
// is incremented, the optional OnDrop error path runs, and done never
// fires — the caller's stalled-send counters make the loss visible.
func (f *Fabric) StartClientFlow(c topology.Coord, oss int, mode RouteMode, bytes float64, src *rng.Source, done func()) {
	eng := f.engine()
	// Spantrace: under a sampled request context the send becomes a
	// fabric child span; with no context at all (raw fabric workloads,
	// the congestion benchmark) the fabric self-samples roots; NoSpan
	// means the request was considered upstream and skipped, so nothing
	// is recorded.
	tr := f.Tracer
	var fparent spantrace.SpanID
	if tr != nil {
		switch p := tr.Cur(); {
		case p == spantrace.NoSpan:
			tr = nil
		case p == 0:
			fparent = tr.SampleRoot(spantrace.Fabric, "send", int64(bytes))
			if fparent == 0 {
				tr = nil
			}
		default:
			fparent = tr.Begin(spantrace.Fabric, "send", p, int64(bytes))
		}
	}
	// The blacklist is allocated lazily: the overwhelmingly common case
	// is a first-attempt success, and this runs once per RPC. Lookups on
	// the nil map are fine; only a stall materializes it.
	var skip map[int]bool
	var attempt func()
	attempt = func() {
		rid := f.selectRouter(c, f.ossLeaf[oss], mode, src, skip)
		if rid < 0 {
			f.DroppedFlows++
			tr.Mark(spantrace.Fabric, "drop", fparent, int64(bytes), "")
			tr.End(fparent)
			if f.OnDrop != nil {
				f.OnDrop(oss, bytes)
			}
			return
		}
		if f.failedRouters[rid] {
			// Dead router selected: without ARN the sender discovers it
			// the hard way.
			f.StalledSends++
			f.StallTime += RouterTimeout
			stall := tr.Begin(spantrace.Fabric, "router-stall", fparent, 0)
			if stall != 0 {
				tr.Annotate(stall, "rtr"+strconv.Itoa(rid))
			}
			if skip == nil {
				skip = map[int]bool{}
			}
			skip[rid] = true
			eng.After(RouterTimeout, func() {
				tr.End(stall)
				tr.Mark(spantrace.Fabric, "reroute", fparent, 0, "")
				attempt()
			})
			return
		}
		path := f.pathVia(c, oss, rid)
		fl := tr.Begin(spantrace.Fabric, "flow", fparent, int64(bytes))
		if fl != 0 {
			tr.Annotate(fl, "rtr"+strconv.Itoa(rid)+" hops="+strconv.Itoa(len(path)))
			for _, l := range path {
				tr.Mark(spantrace.Fabric, "hop", fl, 0, l.Name)
			}
			inner := done
			done = func() {
				tr.End(fl)
				tr.End(fparent)
				if inner != nil {
					inner()
				}
			}
		}
		f.Net.StartFlow(path, bytes, done)
	}
	attempt()
}

func (f *Fabric) engine() *sim.Engine { return f.eng }
