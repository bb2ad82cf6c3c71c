package netsim

import (
	"math"
	"testing"

	"spiderfs/internal/sim"
)

func TestSingleFlowFullBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("l", 1e9, 0)
	done := false
	n.StartFlow([]*Link{l}, 1e9, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("flow never completed")
	}
	// 1 GB at 1 GB/s = 1 s.
	if math.Abs(eng.Now().Seconds()-1.0) > 1e-6 {
		t.Fatalf("completion at %v, want 1s", eng.Now())
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("l", 1e9, 0)
	completions := 0
	n.StartFlow([]*Link{l}, 1e9, func() { completions++ })
	n.StartFlow([]*Link{l}, 1e9, func() { completions++ })
	eng.Run()
	if completions != 2 {
		t.Fatalf("completions = %d", completions)
	}
	// Both share: each runs at 500 MB/s -> both finish at 2 s.
	if math.Abs(eng.Now().Seconds()-2.0) > 1e-6 {
		t.Fatalf("completion at %v, want 2s", eng.Now())
	}
}

func TestFlowDepartureRedistributesBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("l", 1e9, 0)
	var firstDone, secondDone sim.Time
	n.StartFlow([]*Link{l}, 0.5e9, func() { firstDone = eng.Now() })
	n.StartFlow([]*Link{l}, 1.0e9, func() { secondDone = eng.Now() })
	eng.Run()
	// Shared at 500 MB/s: first finishes at 1s. Second has 0.5 GB left,
	// then gets the full 1 GB/s -> finishes at 1.5s.
	if math.Abs(firstDone.Seconds()-1.0) > 1e-6 {
		t.Fatalf("first done at %v, want 1s", firstDone)
	}
	if math.Abs(secondDone.Seconds()-1.5) > 1e-6 {
		t.Fatalf("second done at %v, want 1.5s", secondDone)
	}
}

func TestMultiLinkBottleneck(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	fast := n.NewLink("fast", 10e9, 0)
	slow := n.NewLink("slow", 1e9, 0)
	n.StartFlow([]*Link{fast, slow}, 1e9, nil)
	eng.Run()
	if math.Abs(eng.Now().Seconds()-1.0) > 1e-6 {
		t.Fatalf("bottleneck not respected: done at %v", eng.Now())
	}
}

func TestLateArrivalSlowsExistingFlow(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("l", 1e9, 0)
	var done1 sim.Time
	n.StartFlow([]*Link{l}, 1e9, func() { done1 = eng.Now() })
	eng.At(sim.FromSeconds(0.5), func() {
		n.StartFlow([]*Link{l}, 1e9, nil)
	})
	eng.Run()
	// Flow 1: 0.5 GB in first 0.5 s, then 0.5 GB at 500 MB/s = 1 more
	// second -> done at 1.5 s.
	if math.Abs(done1.Seconds()-1.5) > 1e-6 {
		t.Fatalf("first flow done at %v, want 1.5s", done1)
	}
}

func TestLinkAccounting(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("l", 1e9, 0)
	n.StartFlow([]*Link{l}, 2e9, nil)
	eng.Run()
	if math.Abs(l.BytesCarried-2e9) > 1e3 {
		t.Fatalf("bytes carried = %g, want 2e9", l.BytesCarried)
	}
	if l.MaxFlows != 1 {
		t.Fatalf("max flows = %d", l.MaxFlows)
	}
	u := n.utilization(l, eng.Now())
	if math.Abs(u-1.0) > 0.01 {
		t.Fatalf("utilization = %f, want ~1", u)
	}
}

func TestEmptyPathCompletesImmediately(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	done := false
	n.StartFlow(nil, 100, func() { done = true })
	eng.Run()
	if !done || eng.Now() != 0 {
		t.Fatalf("empty-path flow: done=%v now=%v", done, eng.Now())
	}
}

func TestLatencyDelaysCompletion(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("l", 1e9, sim.Millisecond)
	n.StartFlow([]*Link{l}, 1e9, nil)
	eng.Run()
	want := 1.001
	if math.Abs(eng.Now().Seconds()-want) > 1e-6 {
		t.Fatalf("done at %v, want %vs", eng.Now(), want)
	}
}

// A transfer that would outlast representable time completes at
// MaxTime, never "in the past": both at t=0 and mid-run, where the
// completion instant would overflow the clock.
func TestHugeFlowSaturatesCompletion(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("l", 1e9, 0)
	n.StartFlow([]*Link{l}, 1e22, nil)
	eng.At(sim.Second, func() { n.StartFlow([]*Link{l}, 1e22, nil) })
	eng.RunUntil(sim.Day)
	if n.FlowsCompleted != 0 {
		t.Fatalf("%d 1e22-byte flows completed within a day at 1 GB/s", n.FlowsCompleted)
	}
	eng.Run()
	if n.FlowsCompleted != 2 || eng.Now() != sim.MaxTime {
		t.Fatalf("completed %d flows by %v, want 2 at MaxTime", n.FlowsCompleted, eng.Now())
	}
}

func TestNetworkCounters(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("l", 1e9, 0)
	for i := 0; i < 5; i++ {
		n.StartFlow([]*Link{l}, 1e8, nil)
	}
	eng.Run()
	if n.FlowsStarted != 5 || n.FlowsCompleted != 5 {
		t.Fatalf("started=%d completed=%d", n.FlowsStarted, n.FlowsCompleted)
	}
	if math.Abs(n.BytesDelivered-5e8) > 1 {
		t.Fatalf("delivered = %g", n.BytesDelivered)
	}
}

func TestManyFlowsConvergeToFairShare(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("l", 1e9, 0)
	const k = 100
	var last sim.Time
	for i := 0; i < k; i++ {
		n.StartFlow([]*Link{l}, 1e7, func() { last = eng.Now() })
	}
	eng.Run()
	// k flows of 10 MB sharing 1 GB/s finish together at k*10MB/1GBps = 1s.
	if math.Abs(last.Seconds()-1.0) > 1e-3 {
		t.Fatalf("last completion at %v, want ~1s", last)
	}
}

func TestZeroCapacityLinkPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.NewLink("bad", 0, 0)
}

func TestZeroSizeFlowPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("l", 1, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.StartFlow([]*Link{l}, 0, nil)
}
