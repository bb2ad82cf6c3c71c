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
// in an order independent of map randomization. This is also the hot
// path at Spider II scale (tens of thousands of concurrent flows), so
// the start/finish path performs no map operations and skips
// rescheduling flows whose fair-share rate did not change.
package netsim

import (
	"fmt"

	"spiderfs/internal/sim"
)

// linkSlot is one entry of a link's intrusive flow registry. slot is the
// index of this link within the flow's path, so swap-remove can repair
// the moved flow's back-pointer in O(1).
type linkSlot struct {
	f    *Flow
	slot int
}

// Link is a unidirectional channel with fixed capacity shared equally by
// the flows crossing it.
type Link struct {
	Name    string
	Cap     float64  // bytes per second
	Latency sim.Time // propagation/forwarding delay added once per flow

	// nominal remembers pre-degradation capacity (see cable.go).
	nominal float64

	// flows is the insertion-ordered registry of flows crossing the
	// link; flowIdx back-pointers live in each flow's linkIdx.
	flows []linkSlot

	// Capacity-seconds integration across Degrade/Restore, so
	// Utilization reports against the capacity that was actually
	// available over the window rather than the instantaneous Cap.
	capSecs  float64  // integral of Cap dt over [creation, capSince]
	capSince sim.Time // last capacity change (or creation) time

	// Congestion accounting.
	BytesCarried float64
	MaxFlows     int
}

// Flows returns the number of flows currently crossing the link.
func (l *Link) Flows() int { return len(l.flows) }

// accrueCap integrates capacity-seconds up to now. Called before every
// capacity change and by Utilization.
func (l *Link) accrueCap(now sim.Time) {
	if now > l.capSince {
		l.capSecs += l.Cap * (now - l.capSince).Seconds()
		l.capSince = now
	}
}

// capacitySeconds returns the integral of capacity over [creation, now].
func (l *Link) capacitySeconds(now sim.Time) float64 {
	cs := l.capSecs
	if now > l.capSince {
		cs += l.Cap * (now - l.capSince).Seconds()
	}
	return cs
}

// Utilization returns the fraction of the capacity available over
// [creation, now] that was actually used. Capacity changes from
// Degrade/Restore are integrated, so historical utilization stays in
// [0, 1] instead of being misreported against the instantaneous Cap.
func (l *Link) Utilization(now sim.Time) float64 {
	cs := l.capacitySeconds(now)
	if cs <= 0 {
		return 0
	}
	return l.BytesCarried / cs
}

// attach appends f (whose path index is slot) to the link's registry.
func (l *Link) attach(f *Flow, slot int) {
	f.linkIdx[slot] = int32(len(l.flows))
	l.flows = append(l.flows, linkSlot{f: f, slot: slot})
	if len(l.flows) > l.MaxFlows {
		l.MaxFlows = len(l.flows)
	}
}

// detach swap-removes the registry entry at index idx, repairing the
// moved flow's back-pointer.
func (l *Link) detach(idx int32) {
	last := len(l.flows) - 1
	moved := l.flows[last]
	l.flows[idx] = moved
	moved.f.linkIdx[moved.slot] = idx
	l.flows[last] = linkSlot{}
	l.flows = l.flows[:last]
}

// linkIdxInline is the path length covered by a Flow's inline index
// buffer: the longest Titan client->OSS path (torus diameter 12+8+12
// plus injection, router, SAN and OSS-port hops) fits, so the
// start/finish path does not allocate a separate index slice.
const linkIdxInline = 40

// Flow is one in-flight transfer.
type Flow struct {
	path []*Link
	// linkIdx[k] is this flow's index in path[k].flows — the intrusive
	// half of the link registries. It aliases idxBuf for the path
	// lengths any real fabric produces.
	linkIdx    []int32
	idxBuf     [linkIdxInline]int32
	size       float64
	remaining  float64
	rate       float64
	lastUpdate sim.Time
	completion *sim.Event
	done       func()
	net        *Network
	activeIdx  int    // index in Network.active, -1 once finished
	stamp      uint64 // epoch marker for affected-set collection
}

// Rate returns the flow's current share in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Network owns links and flows for one engine.
type Network struct {
	eng    *sim.Engine
	links  []*Link
	active []*Flow // insertion-ordered; swap-remove via Flow.activeIdx

	epoch   uint64  // current affected-set collection epoch
	scratch []*Flow // reused affected-set buffer (no per-event allocation)

	FlowsStarted   uint64
	FlowsCompleted uint64
	BytesDelivered float64
}

// NewNetwork creates an empty network on eng.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{eng: eng}
}

// ActiveFlows returns the number of in-flight transfers.
func (n *Network) ActiveFlows() int { return len(n.active) }

// Sync brings every active flow's progress accounting up to the current
// time, so link counters can be read mid-transfer (live monitoring and
// cable diagnosis need this).
func (n *Network) Sync() {
	for _, f := range n.active {
		n.advance(f)
	}
}

// NewLink creates and registers a link.
func (n *Network) NewLink(name string, capBps float64, latency sim.Time) *Link {
	if capBps <= 0 {
		panic(fmt.Sprintf("netsim: link %q with non-positive capacity", name)) //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	l := &Link{Name: name, Cap: capBps, Latency: latency, capSince: n.eng.Now()}
	n.links = append(n.links, l)
	return l
}

// Links returns all registered links (congestion reporting).
func (n *Network) Links() []*Link { return n.links }

// StartFlow launches a transfer of size bytes across path and calls done
// (may be nil) at completion. An empty path completes after zero time.
func (n *Network) StartFlow(path []*Link, size float64, done func()) *Flow {
	if size <= 0 {
		panic("netsim: flow with non-positive size") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	n.FlowsStarted++
	f := &Flow{path: path, size: size, remaining: size, lastUpdate: n.eng.Now(),
		done: done, net: n, activeIdx: -1}
	if len(path) == 0 {
		n.eng.After(0, func() { n.finish(f) })
		return f
	}
	f.activeIdx = len(n.active)
	n.active = append(n.active, f)
	if len(path) <= linkIdxInline {
		f.linkIdx = f.idxBuf[:len(path)]
	} else {
		f.linkIdx = make([]int32, len(path))
	}
	var latency sim.Time
	for k, l := range path {
		l.attach(f, k)
		latency += l.Latency
	}
	// Fold path latency into the transfer by pre-charging it as time the
	// flow spends before data moves: schedule the first rate assignment
	// after the latency. For the bulk transfers Spider carries, latency
	// is negligible against transfer time; this keeps bookkeeping simple.
	f.lastUpdate = n.eng.Now() + latency
	n.reassign(n.affected(f))
	return f
}

// affected fills the network's scratch buffer with every flow sharing a
// link with f (f itself first), in deterministic order: path order, then
// each link's registry in insertion order. The per-flow epoch stamp
// deduplicates without allocating; the returned slice is valid until the
// next affected/affectedLink call.
func (n *Network) affected(f *Flow) []*Flow {
	n.epoch++
	s := n.scratch[:0]
	f.stamp = n.epoch
	s = append(s, f)
	for _, l := range f.path {
		for _, e := range l.flows {
			if e.f.stamp != n.epoch {
				e.f.stamp = n.epoch
				s = append(s, e.f)
			}
		}
	}
	n.scratch = s
	return s
}

// affectedLink collects l's flows in insertion order into the scratch
// buffer (same validity rules as affected).
func (n *Network) affectedLink(l *Link) []*Flow {
	n.epoch++
	s := n.scratch[:0]
	for _, e := range l.flows {
		if e.f.stamp != n.epoch {
			e.f.stamp = n.epoch
			s = append(s, e.f)
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

// reassign recomputes rates and completion events for the given flows,
// in slice order (the caller guarantees a deterministic order). A flow
// whose fair-share rate is unchanged keeps its scheduled completion
// event untouched: with a constant rate, lazy progress accounting and
// the already-scheduled completion time both remain exact, so the
// cancel+reschedule (two heap operations and an allocation) is skipped.
func (n *Network) reassign(flows []*Flow) {
	for _, f := range flows {
		rate := -1.0
		for _, l := range f.path {
			share := l.Cap / float64(len(l.flows))
			if rate < 0 || share < rate {
				rate = share
			}
		}
		if rate < 0 {
			rate = 0
		}
		if rate == f.rate && f.completion.Pending() {
			continue
		}
		n.advance(f)
		f.rate = rate
		if rate <= 0 {
			f.completion.Cancel()
			f.completion = nil
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
		// semantics as cancel+reschedule (fresh sequence number), but no
		// allocation and no canceled tombstone left in the event heap.
		if f.completion != nil && n.eng.Reschedule(f.completion, at) {
			continue
		}
		ff := f
		f.completion = n.eng.At(at, func() { n.finish(ff) })
	}
}

// finish tears the flow down and redistributes its bandwidth.
func (n *Network) finish(f *Flow) {
	n.advance(f)
	n.BytesDelivered += f.size
	f.remaining = 0
	aff := n.affected(f) // aff[0] is f itself
	for k, l := range f.path {
		l.detach(f.linkIdx[k])
	}
	f.rate = 0
	f.completion = nil
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
	n.reassign(aff[1:])
	if f.done != nil {
		f.done()
	}
}

// reset returns the link to its as-built state at time now: nominal
// capacity restored (undoing any Degrade), congestion counters zeroed,
// and the capacity-seconds integral restarted. The flow registry must
// already be empty — Network.Reset refuses to run with flows in flight.
func (l *Link) reset(now sim.Time) {
	if l.nominal != 0 {
		l.Cap = l.nominal
		l.nominal = 0
	}
	l.capSecs = 0
	l.capSince = now
	l.BytesCarried = 0
	l.MaxFlows = 0
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
	n.epoch = 0
	n.scratch = n.scratch[:0]
	now := n.eng.Now()
	for _, l := range n.links {
		l.reset(now)
	}
	return nil
}

// MaxLinkUtilization returns the highest utilization across links and
// that link's name — the hot-spot metric of Lesson 14.
func (n *Network) MaxLinkUtilization() (float64, string) {
	now := n.eng.Now()
	best, name := 0.0, ""
	for _, l := range n.links {
		if u := l.Utilization(now); u > best {
			best, name = u, l.Name
		}
	}
	return best, name
}
