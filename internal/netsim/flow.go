// Package netsim is a flow-level network simulator for the Spider I/O
// path: Titan's Gemini 3D torus, the LNET router layer, and the SION
// InfiniBand SAN. Transfers are modeled as fluid flows that share link
// bandwidth; rates are reassigned whenever a flow starts or finishes.
//
// Rate assignment is egalitarian fair share: a flow's rate is the
// minimum over its links of capacity/activeFlows. This is a conservative
// approximation of max-min fairness (a link whose flows are bottlenecked
// elsewhere does not redistribute its slack), which errs toward
// congestion — appropriate for studying the congestion phenomena of
// Lesson 14.
//
// Determinism contract: all flow/link bookkeeping uses insertion-ordered
// intrusive sets (per-link slices with swap-remove, a per-flow epoch
// stamp for affected-set collection), never Go maps, so completion
// events are scheduled — and their seq-based FIFO tie-breaks assigned —
// in an order independent of map randomization. A registry entry holds
// the flow's id (its index in the network's flow table, given in build
// order) and the link's slot in the flow's path; walks read a registry
// in insertion order, never in id order.
//
// Hot path. At Spider II scale (tens of thousands of concurrent flows)
// the solver is incremental and allocation-free. It rests on one
// invariant: between operations, every active flow's rate is the
// minimum over its path of the links' current shares (Link.share =
// Cap/flows), because every share change re-rates every flow on that
// link. A start therefore lowers a sibling's rate to at most the new
// shares of the starter's links it crosses, with no walk of the
// sibling's own path; a finish can raise only the siblings whose rate
// equals the old share of one of the finisher's links (they were
// bottlenecked there), so only those are recomputed from their paths.
// Both walks collect the affected flows in one deterministic order —
// the flow itself, then its path order, then each link's registry in
// insertion order — and a flow whose rate did not change keeps its
// completion event. Flows are recycled through a per-network free list
// with their path buffers, completion callbacks and flow-table ids, so a
// start/finish performs no allocation and no map operation. A registry
// entry is 8 bytes of (id, slot) with no pointer: registry growth
// allocates half of what a (*Flow, int) entry would, and the garbage
// collector never scans a registry; the walks read each flow through
// the table.
//
// A Link is one 64-byte cache line: its registry, cached share,
// capacity, congestion counters, latency and its id, the index in
// Network.links. Nothing the walks never read stays in the record. A
// name lives in the network, rendered from the id for a fabric's torus
// links and from a per-network table for every other link
// (Network.LinkName). The capacity history of a degraded link, or of
// one built after the network's epoch, lives in a per-network cold
// record made on first use; every other link's capacity integral runs
// from the network's epoch (Network.since).
package netsim

import (
	"fmt"

	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

// linkSlot is one entry of a link's intrusive flow registry: id is the
// flow's index in its network's flow table (Network.tab), slot the
// index of this link within the flow's path, so swap-remove can repair
// the moved flow's back-pointer in O(1). An entry is 8 bytes and holds
// no pointer, so registry growth is cheap and the garbage collector
// never scans a registry.
type linkSlot struct {
	id   int32
	slot int32
}

// Link is a unidirectional channel with fixed capacity shared equally by
// the flows crossing it. A Link lives in its network's slab and must not
// be copied: flows and fabric paths point to it. The record is exactly
// one 64-byte cache line and holds only what the solver and the
// congestion counters read; the link's name and, for a degraded or
// late-built link, its capacity history live in per-network side
// tables that id indexes.
type Link struct {
	// flows is the insertion-ordered registry of flows crossing the
	// link; flowIdx back-pointers live in each flow's linkIdx.
	flows []linkSlot
	// share is Cap/len(flows), refreshed on every change to either, so
	// re-rating reads it instead of dividing (+Inf on an idle link).
	share float64
	Cap   float64 // bytes per second; change it only through Degrade/Restore

	BytesCarried float64  // congestion accounting
	Latency      sim.Time // propagation/forwarding delay added once per flow
	MaxFlows     int32    // congestion accounting: the registry's peak length

	id int32 // index in Network.links
}

// coldLink is the capacity history of a link that has one apart from
// its network's: a link degraded since the network's epoch, or built
// after it. Every other link has had its Cap since Network.since.
type coldLink struct {
	id      int32   // the link's index in Network.links
	nominal float64 // pre-degradation capacity; 0 while not degraded

	// Capacity-seconds integration across Degrade/Restore, so
	// utilization reports against the capacity that was actually
	// available over the window rather than the instantaneous Cap.
	capSecs  float64  // integral of Cap dt over [creation, capSince]
	capSince sim.Time // last capacity change (or creation) time
}

// accrue integrates capacity-seconds of a link at capacity c up to
// now. Called before every capacity change.
func (r *coldLink) accrue(c float64, now sim.Time) {
	if now > r.capSince {
		r.capSecs += c * (now - r.capSince).Seconds()
		r.capSince = now
	}
}

// coldOf returns l's cold record, or nil when l has none.
func (n *Network) coldOf(l *Link) *coldLink {
	if i, ok := n.coldIdx[l.id]; ok {
		return &n.cold[i]
	}
	return nil
}

// coldFor returns l's cold record, making one whose integral starts at
// the network's epoch when l has none.
func (n *Network) coldFor(l *Link) *coldLink {
	if r := n.coldOf(l); r != nil {
		return r
	}
	if n.coldIdx == nil {
		n.coldIdx = map[int32]int32{}
	}
	n.coldIdx[l.id] = int32(len(n.cold))
	n.cold = append(n.cold, coldLink{id: l.id, capSince: n.since})
	return &n.cold[len(n.cold)-1]
}

// capacitySeconds returns the integral of l's capacity over [creation,
// now], or over [since, now] after a Reset.
func (n *Network) capacitySeconds(l *Link, now sim.Time) float64 {
	cs, since := 0.0, n.since
	if r := n.coldOf(l); r != nil {
		cs, since = r.capSecs, r.capSince
	}
	if now > since {
		cs += l.Cap * (now - since).Seconds()
	}
	return cs
}

// utilization returns the fraction of the capacity available to l over
// [creation, now] that was actually used. Capacity changes from
// Degrade/Restore are integrated, so historical utilization stays in
// [0, 1] instead of being misreported against the instantaneous Cap.
func (n *Network) utilization(l *Link, now sim.Time) float64 {
	cs := n.capacitySeconds(l, now)
	if cs <= 0 {
		return 0
	}
	return l.BytesCarried / cs
}

// setShare refreshes the cached fair share after a change to Cap or to
// the registry.
func (l *Link) setShare() { l.share = l.Cap / float64(len(l.flows)) }

// attach appends f (whose path index is slot) to the link's registry.
func (l *Link) attach(f *Flow, slot int) {
	f.linkIdx[slot] = int32(len(l.flows))
	l.flows = append(l.flows, linkSlot{id: f.id, slot: int32(slot)})
	if k := int32(len(l.flows)); k > l.MaxFlows {
		l.MaxFlows = k
	}
	l.setShare()
}

// detach swap-removes the registry entry at index idx, repairing the
// moved flow's back-pointer through the flow table tab.
func (l *Link) detach(tab []*Flow, idx int32) {
	last := len(l.flows) - 1
	moved := l.flows[last]
	l.flows[idx] = moved
	tab[moved.id].linkIdx[moved.slot] = idx
	l.flows[last] = linkSlot{}
	l.flows = l.flows[:last]
	l.setShare()
}

// linkIdxInline is the path length covered by a Flow's inline index
// buffer and its first path buffer: the longest Titan client->OSS path
// (torus diameter 12+8+12 plus injection, router, SAN and OSS-port
// hops) fits, so neither ever grows on a real fabric.
const linkIdxInline = 40

// Flow is one in-flight transfer. Flows are recycled: a *Flow returned
// by StartFlow is valid only until its done callback runs. The fields
// the registry walks and reassign read come first; the inline index
// buffer, read only through linkIdx, comes last.
type Flow struct {
	stamp      uint64  // epoch marker for affected-set collection
	rate       float64 // current share in bytes/second
	next       float64 // rate the pending reassign applies; < 0: recompute from the path
	remaining  float64
	lastUpdate sim.Time
	completion sim.Event
	// path is owned by the flow and reused when it is recycled; callers'
	// slices are copied in, never retained.
	path []*Link
	// linkIdx[k] is this flow's index in path[k].flows — the intrusive
	// half of the link registries. It aliases idxBuf for the path
	// lengths any real fabric produces.
	linkIdx   []int32
	id        int32 // index in Network.tab, fixed for the object's life
	activeIdx int   // index in Network.active, -1 once finished
	size      float64
	done      func()
	finishFn  func() // n.finish(f), bound once per Flow object
	idxBuf    [linkIdxInline]int32
}

// pathRate is the egalitarian rate from scratch: the minimum share over
// the flow's (non-empty) path.
func (f *Flow) pathRate() float64 {
	rate := f.path[0].share
	for _, l := range f.path[1:] {
		if l.share < rate {
			rate = l.share
		}
	}
	return rate
}

// Network owns links and flows for one engine.
type Network struct {
	eng   *sim.Engine
	links []*Link // indexed by Link.id
	// slab is the chunk newLink carves links from: NewFabric sizes one
	// chunk for its whole topology, a plain network takes linkChunk at a
	// time. A pointer to one link keeps its whole chunk alive.
	slab []Link

	// torus and torusLinks name a fabric's torus links, ids 0 to
	// torusLinks-1, from their ids (see torusLinkName); a plain network
	// has none. names holds every other link's name, indexed by id -
	// torusLinks.
	torus      topology.Torus
	torusLinks int32
	names      []linkName

	// since is when every link's capacity integral starts unless the
	// link has a cold record: NewNetwork's time, then each Reset's.
	// cold holds those records in the order they were made, and
	// coldIdx finds a link's record by its id.
	since   sim.Time
	cold    []coldLink
	coldIdx map[int32]int32

	// tab is the flow table: every Flow the network has built, indexed
	// by Flow.id, so a registry entry names its flow in 4 bytes.
	tab    []*Flow
	active []*Flow // insertion-ordered; swap-remove via Flow.activeIdx
	free   []*Flow // finished flows awaiting reuse

	epoch   uint64  // current affected-set collection epoch
	scratch []*Flow // reused affected-set buffer (no per-event allocation)

	FlowsStarted   uint64
	FlowsCompleted uint64
	BytesDelivered float64

	// The solver's work, counted so that a change to it shows exactly
	// whatever the host's speed: registry entries the start and finish
	// walks read (one add of a link's registry length per link walked),
	// flows handed to reassign, and the flows among them whose rate or
	// completion event reassign changed.
	EntriesWalked uint64
	FlowsRerated  uint64
	RatesChanged  uint64
}

// NewNetwork creates an empty network on eng.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{eng: eng, since: eng.Now()}
}

// ActiveFlows returns the number of in-flight transfers.
func (n *Network) ActiveFlows() int { return len(n.active) }

// NewLink creates and registers a link.
func (n *Network) NewLink(name string, capBps float64, latency sim.Time) *Link {
	return n.newLink(linkName{s: name}, capBps, latency)
}

// LinkName returns the name of l, one of n's links. A fabric link's
// name is rendered from its id or its descriptor on each call.
func (n *Network) LinkName(l *Link) string { return n.name(l.id) }

// name renders the name of link id.
func (n *Network) name(id int32) string {
	if id < n.torusLinks {
		return torusLinkName(n.torus, int(id))
	}
	return n.names[id-n.torusLinks].String()
}

// linkChunk is how many links a plain network's slab chunk holds.
const linkChunk = 64

// reserve presizes the link registry and the slab for k more links,
// and the names table for named of them.
func (n *Network) reserve(k, named int) {
	n.links = append(make([]*Link, 0, len(n.links)+k), n.links...)
	n.slab = make([]Link, 0, k)
	n.names = append(make([]linkName, 0, len(n.names)+named), n.names...)
}

// newLink makes a link in the next slot of the current slab chunk,
// starting a chunk of linkChunk when that one is full. nm is its name,
// unless its id falls among a fabric's torus links, which are named by
// id. A link built after the network's epoch gets a cold record, so its
// capacity integral starts at its creation.
func (n *Network) newLink(nm linkName, capBps float64, latency sim.Time) *Link {
	id := int32(len(n.links))
	if id >= n.torusLinks {
		n.names = append(n.names, nm)
	}
	if capBps <= 0 {
		panic(fmt.Sprintf("netsim: link %q with non-positive capacity", n.name(id))) //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	if len(n.slab) == cap(n.slab) {
		n.slab = make([]Link, 0, linkChunk)
	}
	n.slab = n.slab[:len(n.slab)+1]
	l := &n.slab[len(n.slab)-1]
	l.id, l.Cap, l.Latency = id, capBps, latency
	l.setShare()
	n.links = append(n.links, l)
	if now := n.eng.Now(); now != n.since {
		n.coldFor(l).capSince = now
	}
	return l
}

// Links returns all registered links (congestion reporting).
func (n *Network) Links() []*Link { return n.links }

// StartFlow launches a transfer of size bytes across path and calls done
// (may be nil) at completion. An empty path completes after zero time.
// path is copied, so the caller may reuse it. The returned *Flow is
// recycled once done runs and must not be used after that.
func (n *Network) StartFlow(path []*Link, size float64, done func()) *Flow {
	f := n.newFlow()
	f.path = append(f.path[:0], path...)
	return n.start(f, size, done)
}

// newFlow takes a flow from the free list, or builds one with its
// completion callback bound, its path buffer sized for a Titan path and
// its id, the next slot of the flow table. A recycled flow keeps its id.
func (n *Network) newFlow() *Flow {
	if k := len(n.free) - 1; k >= 0 {
		f := n.free[k]
		n.free[k] = nil
		n.free = n.free[:k]
		return f
	}
	f := &Flow{path: make([]*Link, 0, linkIdxInline), id: int32(len(n.tab))}
	f.finishFn = func() { n.finish(f) }
	n.tab = append(n.tab, f)
	return f
}

// start launches f, whose path is already filled in. One walk over f's
// links attaches f and collects the affected set (f first, then path
// order, then each link's registry in insertion order); for each
// sibling it also folds the new share of every link of f's it crosses
// into the sibling's current rate — exact by the package invariant, as
// a start only lowers shares. Only f itself is rated from scratch.
func (n *Network) start(f *Flow, size float64, done func()) *Flow {
	if size <= 0 {
		panic("netsim: flow with non-positive size") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	n.FlowsStarted++
	f.size, f.remaining, f.rate, f.done = size, size, 0, done
	f.lastUpdate = n.eng.Now()
	if len(f.path) == 0 {
		f.activeIdx = -1
		n.eng.After(0, f.finishFn)
		return f
	}
	f.activeIdx = len(n.active)
	n.active = append(n.active, f)
	if len(f.path) <= linkIdxInline {
		f.linkIdx = f.idxBuf[:len(f.path)]
	} else {
		f.linkIdx = make([]int32, len(f.path))
	}
	// f is stamped first, so the walk skips its registry entries; as
	// every start stamps afresh, a recycled flow's stamp from before a
	// Reset (which restarts the epoch count) is never read.
	n.epoch++
	f.stamp = n.epoch
	f.next = -1
	var latency sim.Time
	for _, l := range f.path {
		latency += l.Latency
	}
	aff := append(n.scratch[:0], f)
	tab := n.tab
	for k, l := range f.path {
		l.attach(f, k)
		share := l.share
		n.EntriesWalked += uint64(len(l.flows))
		for _, e := range l.flows {
			g := tab[e.id]
			if g.stamp != n.epoch {
				g.stamp = n.epoch
				g.next = g.rate
				aff = append(aff, g)
			}
			// f's own next stays negative: shares are never below it.
			if share < g.next {
				g.next = share
			}
		}
	}
	n.scratch = aff
	// Fold path latency into the transfer by pre-charging it as time the
	// flow spends before data moves: schedule the first rate assignment
	// after the latency. For the bulk transfers Spider carries, latency
	// is negligible against transfer time; this keeps bookkeeping simple.
	f.lastUpdate += latency
	n.reassign(aff)
	return f
}

// affectedLink collects l's flows in insertion order into the scratch
// buffer, each marked for a full recompute (Degrade and Restore change
// the share under every one of them). The returned slice is valid until
// the next start, finish or affectedLink.
func (n *Network) affectedLink(l *Link) []*Flow {
	n.epoch++
	s := n.scratch[:0]
	for _, e := range l.flows {
		if g := n.tab[e.id]; g.stamp != n.epoch {
			g.stamp = n.epoch
			g.next = -1
			s = append(s, g)
		}
	}
	n.scratch = s
	return s
}

// advance accrues progress at the current rate up to now.
func (n *Network) advance(f *Flow) {
	now := n.eng.Now()
	dt := now - f.lastUpdate
	if dt > 0 && f.rate > 0 {
		moved := f.rate * dt.Seconds()
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		for _, l := range f.path {
			l.BytesCarried += moved
		}
	}
	if now > f.lastUpdate {
		f.lastUpdate = now
	}
}

// reassign applies the rates the collecting walk prepared, in slice
// order (the caller guarantees a deterministic order): a flow's next
// rate, or, where next is negative, its rate from scratch. A flow whose
// rate is unchanged keeps its scheduled completion event untouched:
// with a constant rate, lazy progress accounting and the
// already-scheduled completion time both remain exact, so the
// cancel+reschedule (two heap operations) is skipped.
func (n *Network) reassign(flows []*Flow) {
	n.FlowsRerated += uint64(len(flows))
	for _, f := range flows {
		rate := f.next
		if rate < 0 {
			rate = f.pathRate()
		}
		if rate == f.rate && f.completion.Pending() {
			continue
		}
		n.RatesChanged++
		n.advance(f)
		f.rate = rate
		if rate <= 0 {
			f.completion.Cancel()
			continue
		}
		dur := sim.FromSeconds(f.remaining / rate)
		start := f.lastUpdate
		if start < n.eng.Now() {
			start = n.eng.Now()
		}
		at := start + dur
		if at < start { // overflow: saturate instead of wrapping into the past
			at = sim.MaxTime
		}
		// Move the existing completion event when possible: same FIFO
		// semantics as cancel+reschedule (fresh sequence number), but the
		// event and its handle stay, and a heap event is fixed in place.
		if n.eng.Reschedule(f.completion, at) {
			continue
		}
		f.completion = n.eng.At(at, f.finishFn)
	}
}

// finish tears the flow down and redistributes its bandwidth. The walk
// runs before f detaches, so it reads the old shares: a sibling whose
// rate equals the old share of one of f's links was bottlenecked there
// and is recomputed. Every other sibling's rate is set by a link f does
// not cross, and the shares of f's links only rise, so it keeps its
// rate and its completion event.
// f returns to the free list before done runs, so done may start a new
// flow (and reuse f).
func (n *Network) finish(f *Flow) {
	n.advance(f)
	n.BytesDelivered += f.size
	f.remaining = 0
	n.epoch++
	f.stamp = n.epoch
	aff := n.scratch[:0]
	tab := n.tab
	for _, l := range f.path {
		share := l.share
		n.EntriesWalked += uint64(len(l.flows))
		for _, e := range l.flows {
			g := tab[e.id]
			if g.stamp != n.epoch {
				g.stamp = n.epoch
				g.next = g.rate
				aff = append(aff, g)
			}
			if g.rate == share {
				g.next = -1
			}
		}
	}
	n.scratch = aff
	for k, l := range f.path {
		l.detach(tab, f.linkIdx[k])
	}
	f.rate = 0
	if f.activeIdx >= 0 {
		last := len(n.active) - 1
		moved := n.active[last]
		n.active[f.activeIdx] = moved
		moved.activeIdx = f.activeIdx
		n.active[last] = nil
		n.active = n.active[:last]
		f.activeIdx = -1
	}
	n.FlowsCompleted++
	n.reassign(aff)
	done := f.done
	f.done = nil
	n.free = append(n.free, f)
	if done != nil {
		done()
	}
}

// Reset returns the network to its just-built state — links keep their
// topology and capacities (degraded links are restored to nominal) but
// every counter and utilization integral starts over at the engine's
// current time. This is the warm-pool seam: a reset network on a reset
// engine must be indistinguishable from a freshly built one, so resets
// with transfers still in flight are refused (tearing flows down
// mid-transfer would have to invent completion semantics).
func (n *Network) Reset() error {
	if len(n.active) > 0 {
		return fmt.Errorf("netsim: reset with %d flows in flight; drain the engine first", len(n.active))
	}
	n.FlowsStarted = 0
	n.FlowsCompleted = 0
	n.BytesDelivered = 0
	n.EntriesWalked, n.FlowsRerated, n.RatesChanged = 0, 0, 0
	n.epoch = 0
	n.scratch = n.scratch[:0]
	// Degraded links return to nominal capacity; every integral,
	// degraded or late-built, restarts at the new epoch, so no link
	// keeps a cold record.
	for i := range n.cold {
		if r := &n.cold[i]; r.nominal != 0 {
			n.links[r.id].Cap = r.nominal
		}
	}
	n.cold = n.cold[:0]
	clear(n.coldIdx)
	n.since = n.eng.Now()
	for _, l := range n.links {
		l.BytesCarried = 0
		l.MaxFlows = 0
	}
	return nil
}

// MaxLinkUtilization returns the highest utilization across links and
// that link's name — the hot-spot metric of Lesson 14.
func (n *Network) MaxLinkUtilization() (float64, string) {
	now := n.eng.Now()
	best := 0.0
	var hot *Link
	for _, l := range n.links {
		if u := n.utilization(l, now); u > best {
			best, hot = u, l
		}
	}
	if hot == nil {
		return best, ""
	}
	return best, n.LinkName(hot)
}
