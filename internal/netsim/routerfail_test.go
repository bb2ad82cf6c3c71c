package netsim

import (
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

func TestFailRouterStateAndRecovery(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	f.FailRouter(3)
	if !f.RouterFailed(3) || f.RouterFailed(4) {
		t.Fatal("failure state wrong")
	}
	f.RecoverRouter(3)
	if f.RouterFailed(3) {
		t.Fatal("recovery did not clear failure")
	}
}

func TestARNRoutesAroundDeadRouterImmediately(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	f.SetNotification(true)
	src := rng.New(1)
	c := topology.Coord{X: 1, Y: 1, Z: 1}
	oss := 0
	// Kill the FGR-preferred router for this (client, oss) pair.
	rid := f.selectRouter(c, f.ossLeaf[oss], RouteFGR, src, nil)
	f.FailRouter(rid)
	done := false
	f.StartClientFlow(c, oss, RouteFGR, 1e8, src, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("flow never completed")
	}
	if f.StalledSends != 0 {
		t.Fatalf("ARN sender stalled %d times; notification should avoid the dead router", f.StalledSends)
	}
}

func TestNoARNStallsThenRetries(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	f.SetNotification(false)
	src := rng.New(2)
	c := topology.Coord{X: 1, Y: 1, Z: 1}
	oss := 0
	rid := f.selectRouter(c, f.ossLeaf[oss], RouteFGR, src, nil)
	f.FailRouter(rid)
	done := false
	var doneAt sim.Time
	f.StartClientFlow(c, oss, RouteFGR, 1e8, src, func() { done = true; doneAt = eng.Now() })
	eng.Run()
	if !done {
		t.Fatal("flow never completed")
	}
	if f.StalledSends != 1 {
		t.Fatalf("stalls = %d, want exactly 1 (then blacklist + retry)", f.StalledSends)
	}
	if doneAt < RouterTimeout {
		t.Fatalf("completion at %v, before the %v router timeout", doneAt, RouterTimeout)
	}
	if f.StallTime != RouterTimeout {
		t.Fatalf("stall time = %v", f.StallTime)
	}
}

func TestRouterExhaustionDropsFlow(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	f.SetNotification(true)
	src := rng.New(3)
	for rid := 0; rid < f.NumRouters(); rid++ {
		f.FailRouter(rid)
	}
	done := false
	f.StartClientFlow(topology.Coord{}, 2, RouteNaive, 1e6, src, func() { done = true })
	eng.Run()
	if done {
		t.Fatal("a dropped flow must not report completion")
	}
	if f.DroppedFlows != 1 {
		t.Fatalf("DroppedFlows = %d, want 1", f.DroppedFlows)
	}
	// Recovery makes the fabric usable again — the condition is
	// transient, not fatal.
	for rid := 0; rid < f.NumRouters(); rid++ {
		f.RecoverRouter(rid)
	}
	f.StartClientFlow(topology.Coord{}, 2, RouteNaive, 1e6, src, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("flow after recovery never completed")
	}
}

func TestNoARNExhaustionStallsThenDrops(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	f.SetNotification(false)
	src := rng.New(5)
	for rid := 0; rid < f.NumRouters(); rid++ {
		f.FailRouter(rid)
	}
	done := false
	f.StartClientFlow(topology.Coord{X: 1}, 0, RouteFGR, 1e6, src, func() { done = true })
	eng.Run()
	if done {
		t.Fatal("flow with every router dead must not complete")
	}
	if f.DroppedFlows != 1 {
		t.Fatalf("DroppedFlows = %d, want 1", f.DroppedFlows)
	}
	// Without ARN the sender discovered each dead router the hard way
	// before giving up: stalls were paid and recorded.
	if f.StalledSends == 0 || f.StallTime == 0 {
		t.Fatalf("stalls = %d / %v, want > 0 before the drop", f.StalledSends, f.StallTime)
	}
}

func TestHealthyFabricFlowsUnaffectedByARNFlag(t *testing.T) {
	for _, arn := range []bool{false, true} {
		eng := sim.NewEngine()
		f := smallFabric(eng)
		f.SetNotification(arn)
		src := rng.New(4)
		done := 0
		for i := 0; i < 8; i++ {
			f.StartClientFlow(topology.Coord{X: i % 5}, i%32, RouteFGR, 1e8, src, func() { done++ })
		}
		eng.Run()
		if done != 8 || f.StalledSends != 0 {
			t.Fatalf("arn=%v: done=%d stalls=%d", arn, done, f.StalledSends)
		}
	}
}
