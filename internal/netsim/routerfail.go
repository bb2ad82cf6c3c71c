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
	switch mode {
	case RouteFGR:
		group := destLeaf / topology.SwitchesPerGroup
		mods := f.groupMods[group]
		// Nearest module whose router for this leaf is eligible.
		best, bestD := -1, 0
		for i := range mods {
			m := &mods[i]
			rid := m.RouterIDs[destLeaf%topology.SwitchesPerGroup]
			if !f.eligible(rid, skip) {
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
			if f.eligible(rid, skip) {
				return rid
			}
		}
		return -1
	default:
		panic("netsim: unknown route mode") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
}

// eligible reports whether a sender may pick router rid: it is not on
// the sender's skip list and, with ARN, not known dead (failures are
// public knowledge). An empty map costs no lookup.
func (f *Fabric) eligible(rid int, skip map[int]bool) bool {
	if len(skip) > 0 && skip[rid] {
		return false
	}
	return !f.arn || len(f.failedRouters) == 0 || !f.failedRouters[rid]
}

// pathVia appends the full client->OSS link path through router rid to
// dst: injection, Gemini hops to the router's module, router
// forwarding, router->leaf, (core crossing if leaves differ), leaf->OSS
// port. A flow start passes the flow's own recycled path buffer, so
// building the path allocates nothing once that buffer has reached a
// Titan path's length.
func (f *Fabric) pathVia(dst []*Link, c topology.Coord, oss, rid int) []*Link {
	destLeaf := f.ossLeaf[oss]
	mod := f.Placement.Modules[rid/4]
	dst = append(dst, &f.torus[linksPerNode*f.Cfg.Torus.Index(c)+injectSlot])
	dst = f.geminiPath(dst, c, mod.Coord)
	dst = append(dst, f.routerFwd[rid], f.routerUp[rid])
	if sw := f.routerSwitch(rid); sw != destLeaf {
		dst = append(dst, f.coreUp[sw], f.coreDown[destLeaf])
	}
	return append(dst, f.ossPort[oss])
}

// send is one client send in flight through StartClientFlow's attempts.
type send struct {
	c       topology.Coord
	oss     int
	mode    RouteMode
	bytes   float64
	src     *rng.Source
	done    func()
	tr      *spantrace.Tracer
	fparent spantrace.SpanID
	// skip is the sender's router blacklist, allocated by the first
	// stall; lookups on the nil map are fine.
	skip map[int]bool
}

// StartClientFlow launches a transfer from a client to an OSS with
// router-failure semantics: if the chosen router is dead and the sender
// was not notified (no ARN), the flow stalls for RouterTimeout, the
// sender blacklists that router, and retries on another. Counters
// record the stalls so the ARN ablation can quantify the feature.
//
// When no eligible router remains (a center-wide router loss, or every
// router blacklisted after stalls), the send is dropped: DroppedFlows
// is incremented and done never fires — the caller's stalled-send counters make the loss visible.
//
// An untraced first-attempt send allocates nothing: the attempt is a
// plain call, and closures are built only for a stall's retry and for a
// traced send's span-ending completion.
func (f *Fabric) StartClientFlow(c topology.Coord, oss int, mode RouteMode, bytes float64, src *rng.Source, done func()) {
	s := send{c: c, oss: oss, mode: mode, bytes: bytes, src: src, done: done, tr: f.Tracer}
	// Spantrace: under a sampled request context the send becomes a
	// fabric child span; with no context at all (raw fabric workloads,
	// the congestion benchmark) the fabric self-samples roots; NoSpan
	// means the request was considered upstream and skipped, so nothing
	// is recorded.
	if tr := s.tr; tr != nil {
		switch p := tr.Cur(); {
		case p == spantrace.NoSpan:
			s.tr = nil
		case p == 0:
			s.fparent = tr.SampleRoot(spantrace.Fabric, "send", int64(bytes))
			if s.fparent == 0 {
				s.tr = nil
			}
		default:
			s.fparent = tr.Begin(spantrace.Fabric, "send", p, int64(bytes))
		}
	}
	f.attempt(s)
}

// attempt routes s once: it drops the send, stalls on a dead router and
// schedules the retry, or starts the flow.
func (f *Fabric) attempt(s send) {
	tr := s.tr
	rid := f.selectRouter(s.c, f.ossLeaf[s.oss], s.mode, s.src, s.skip)
	if rid < 0 {
		f.DroppedFlows++
		tr.Mark(spantrace.Fabric, "drop", s.fparent, int64(s.bytes), "")
		tr.End(s.fparent)
		return
	}
	if f.failedRouters[rid] {
		// Dead router selected: without ARN the sender discovers it
		// the hard way.
		f.StalledSends++
		f.StallTime += RouterTimeout
		stall := tr.Begin(spantrace.Fabric, "router-stall", s.fparent, 0)
		if stall != 0 {
			tr.Annotate(stall, "rtr"+strconv.Itoa(rid))
		}
		if s.skip == nil {
			s.skip = map[int]bool{}
		}
		s.skip[rid] = true
		f.eng.After(RouterTimeout, func() {
			tr.End(stall)
			tr.Mark(spantrace.Fabric, "reroute", s.fparent, 0, "")
			f.attempt(s)
		})
		return
	}
	fl := f.Net.newFlow()
	fl.path = f.pathVia(fl.path[:0], s.c, s.oss, rid)
	done := s.done
	if sp := tr.Begin(spantrace.Fabric, "flow", s.fparent, int64(s.bytes)); sp != 0 {
		tr.Annotate(sp, "rtr"+strconv.Itoa(rid)+" hops="+strconv.Itoa(len(fl.path)))
		for _, l := range fl.path {
			tr.Mark(spantrace.Fabric, "hop", sp, 0, f.Net.LinkName(l))
		}
		inner, fparent := s.done, s.fparent
		done = func() {
			tr.End(sp)
			tr.End(fparent)
			if inner != nil {
				inner()
			}
		}
	}
	f.Net.start(fl, s.bytes, done)
}
