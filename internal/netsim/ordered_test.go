package netsim

import (
	"math"
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

// checkRegistries validates every intrusive invariant the ordered sets
// rely on: each active flow's linkIdx back-pointers land on its own
// registry entries, every registry entry points back at a live flow,
// and the active list's swap-remove indices are consistent.
func checkRegistries(t *testing.T, n *Network) {
	t.Helper()
	for i, f := range n.active {
		if f.activeIdx != i {
			t.Fatalf("active[%d].activeIdx = %d", i, f.activeIdx)
		}
		if len(f.linkIdx) != len(f.path) {
			t.Fatalf("flow has %d links but %d indices", len(f.path), len(f.linkIdx))
		}
		for k, l := range f.path {
			idx := f.linkIdx[k]
			if idx < 0 || int(idx) >= len(l.flows) {
				t.Fatalf("linkIdx[%d] = %d out of range [0,%d)", k, idx, len(l.flows))
			}
			e := l.flows[idx]
			if e.f != f || e.slot != k {
				t.Fatalf("registry entry mismatch: got (%p,%d), want (%p,%d)", e.f, e.slot, f, k)
			}
		}
	}
	for _, l := range n.links {
		for i, e := range l.flows {
			if e.f.linkIdx[e.slot] != int32(i) {
				t.Fatalf("link %q entry %d back-pointer = %d", l.Name(), i, e.f.linkIdx[e.slot])
			}
			if e.f.activeIdx < 0 {
				t.Fatalf("link %q holds finished flow", l.Name())
			}
		}
	}
}

// TestOrderedRegistrySwapRemove churns flows across shared links with
// interleaved completions and validates the swap-remove bookkeeping
// after every step.
func TestOrderedRegistrySwapRemove(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	src := rng.New(5)
	links := make([]*Link, 6)
	for i := range links {
		links[i] = n.NewLink("l", 1e9, 0)
	}
	for i := 0; i < 400; i++ {
		a, b := src.Intn(6), src.Intn(6)
		path := []*Link{links[a]}
		if a != b {
			path = append(path, links[b])
		}
		n.StartFlow(path, 1e5+float64(src.Intn(1e6)), nil)
		checkRegistries(t, n)
		if i%7 == 3 {
			eng.RunFor(sim.Millisecond)
			checkRegistries(t, n)
		}
	}
	eng.Run()
	checkRegistries(t, n)
	if n.ActiveFlows() != 0 {
		t.Fatalf("%d flows still active after drain", n.ActiveFlows())
	}
	if n.FlowsStarted != 400 || n.FlowsCompleted != 400 {
		t.Fatalf("started %d, completed %d", n.FlowsStarted, n.FlowsCompleted)
	}
	for _, l := range n.links {
		if l.Flows() != 0 {
			t.Fatalf("link %q still has %d registry entries", l.Name(), l.Flows())
		}
	}
}

// TestUnchangedRateKeepsCompletionEvent: a flow bottlenecked on link A
// must not be rescheduled when traffic on its non-bottleneck link B
// changes without moving its min share — the skip that makes fan-in
// congestion cheap.
func TestUnchangedRateKeepsCompletionEvent(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	slow := n.NewLink("slow", 1e8, 0)  // bottleneck: 100 MB/s
	fast := n.NewLink("fast", 10e9, 0) // plenty of slack
	f := n.StartFlow([]*Link{slow, fast}, 1e8, nil)
	ev := f.completion
	if !ev.Pending() {
		t.Fatal("no completion scheduled")
	}
	at := ev.Time()
	// Ten arrivals on the fast link: f's share there drops from 10 GB/s
	// toward 1 GB/s but stays far above the 100 MB/s bottleneck.
	for i := 0; i < 10; i++ {
		n.StartFlow([]*Link{fast}, 1e6, nil)
	}
	if f.completion != ev || !ev.Pending() || ev.Time() != at {
		t.Fatalf("non-bottleneck churn rescheduled the flow: event %v@%v, want %v@%v",
			f.completion, f.completion.Time(), ev, at)
	}
	// An arrival on the bottleneck must reschedule (rate halves). The
	// event is moved via Engine.Reschedule, so the handle may stay the
	// same — the time must move.
	n.StartFlow([]*Link{slow}, 1e8, nil)
	if f.completion.Time() == at {
		t.Fatal("bottleneck arrival did not move the completion event")
	}
	eng.Run()
	if n.FlowsCompleted != 12 {
		t.Fatalf("completed %d, want 12", n.FlowsCompleted)
	}
}

// TestUtilizationIntegratesCapacityChanges: utilization must report
// against the capacity that was actually available over the window.
// Before the capacity-seconds fix, a link degraded after carrying
// traffic divided history by the reduced Cap and could exceed 1.0.
func TestUtilizationIntegratesCapacityChanges(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("l", 1e9, 0)
	// 1s at full 1 GB/s, fully used.
	n.StartFlow([]*Link{l}, 1e9, nil)
	eng.Run() // now = 1s, BytesCarried = 1e9
	n.Degrade(l, 0.1)
	// 1s at 100 MB/s, fully used.
	n.StartFlow([]*Link{l}, 1e8, nil)
	eng.Run() // now = 2s
	// Available capacity over [0,2s] = 1e9 + 1e8; carried = 1.1e9.
	if u := l.Utilization(eng.Now()); math.Abs(u-1.0) > 1e-9 {
		t.Fatalf("utilization = %v, want 1.0 (old formula: %v)", u, 1.1e9/(1e8*2))
	}
	n.Restore(l)
	eng.RunFor(sim.Second) // 1 idle second at nominal
	// Available = 1e9 + 1e8 + 1e9 = 2.1e9; carried 1.1e9.
	if u := l.Utilization(eng.Now()); math.Abs(u-1.1e9/2.1e9) > 1e-9 {
		t.Fatalf("post-restore utilization = %v, want %v", u, 1.1e9/2.1e9)
	}
	if u := l.Utilization(eng.Now()); u > 1 {
		t.Fatalf("utilization %v exceeds 1", u)
	}
}

// TestDegradeRestoreReRatesOrderedFlows exercises Degrade/Restore on a
// link with several flows and checks rates and registry invariants.
func TestDegradeRestoreReRatesOrderedFlows(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("l", 1e9, 0)
	var flows []*Flow
	for i := 0; i < 4; i++ {
		flows = append(flows, n.StartFlow([]*Link{l}, 1e9, nil))
	}
	for _, f := range flows {
		if f.Rate() != 0.25e9 {
			t.Fatalf("rate = %g, want 250 MB/s", f.Rate())
		}
	}
	n.Degrade(l, 0.5)
	for _, f := range flows {
		if f.Rate() != 0.125e9 {
			t.Fatalf("degraded rate = %g, want 125 MB/s", f.Rate())
		}
	}
	checkRegistries(t, n)
	n.Restore(l)
	for _, f := range flows {
		if f.Rate() != 0.25e9 {
			t.Fatalf("restored rate = %g, want 250 MB/s", f.Rate())
		}
	}
	eng.Run()
	checkRegistries(t, n)
}

// TestLongPathSpillsIndexBuffer covers the fallback when a path is
// longer than the inline index buffer.
func TestLongPathSpillsIndexBuffer(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	path := make([]*Link, linkIdxInline+5)
	for i := range path {
		path[i] = n.NewLink("l", 1e9, 0)
	}
	done := false
	n.StartFlow(path, 1e9, func() { done = true })
	checkRegistries(t, n)
	eng.Run()
	if !done {
		t.Fatal("long-path flow never completed")
	}
	for _, l := range n.links {
		if l.Flows() != 0 {
			t.Fatal("long-path flow left registry entries")
		}
	}
}
