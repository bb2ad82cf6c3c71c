package netsim

import (
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/topology"
)

// congestionRun drives a deliberately nasty scheduling scenario: many
// identically-sized flows funneled through one bottleneck link, so they
// all complete at the same instant and their completion order — and the
// RNG draws their done() callbacks make — is decided purely by event
// scheduling order. Before the ordered intrusive registries, reassign
// iterated a map[*Flow]struct{} here, so the engine's FIFO tie-break
// seq was assigned in randomized map order and this trace differed run
// to run. It returns the completion order, the RNG values drawn in the
// callbacks, and the engine's event-trace fingerprint.
func congestionRun(seed uint64) (order []int, draws []uint64, trace uint64) {
	eng := sim.NewEngine()
	th := sim.NewTraceHash()
	eng.SetTrace(th.Observe)
	n := NewNetwork(eng)
	src := rng.New(seed)

	bottleneck := n.NewLink("bottleneck", 1e9, 0)
	spokes := make([]*Link, 7)
	for i := range spokes {
		spokes[i] = n.NewLink("spoke", 8e9, 0)
	}
	const flows = 96
	for i := 0; i < flows; i++ {
		id := i
		path := []*Link{spokes[src.Intn(len(spokes))], bottleneck}
		n.StartFlow(path, 1e7, func() {
			order = append(order, id)
			draws = append(draws, src.Uint64())
		})
	}
	// A second wave lands mid-flight so starts interleave with the
	// steady state (reassign churn on a congested link).
	eng.At(sim.FromSeconds(0.1), func() {
		for i := 0; i < flows/2; i++ {
			id := flows + i
			path := []*Link{spokes[src.Intn(len(spokes))], bottleneck}
			n.StartFlow(path, 1e7, func() {
				order = append(order, id)
				draws = append(draws, src.Uint64())
			})
		}
	})
	eng.Run()
	return order, draws, th.Sum()
}

// TestSameInstantCompletionsDeterministic is the determinism regression
// test for the ordered flow registries: two in-process runs must agree
// on the exact completion order, the RNG stream consumed by completion
// callbacks, and the engine event trace. Reverting reassign (or the
// affected-set collection) to map iteration makes this fail with
// overwhelming probability — 96 same-instant completions fire in map
// order, and Go randomizes that order per run.
func TestSameInstantCompletionsDeterministic(t *testing.T) {
	o1, d1, t1 := congestionRun(11)
	o2, d2, t2 := congestionRun(11)
	if t1 != t2 {
		t.Fatalf("event traces differ: %x vs %x", t1, t2)
	}
	if len(o1) != len(o2) || len(o1) != 144 {
		t.Fatalf("completion counts: %d vs %d, want 144", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("completion order diverges at %d: flow %d vs flow %d", i, o1[i], o2[i])
		}
		if d1[i] != d2[i] {
			t.Fatalf("callback RNG stream diverges at %d", i)
		}
	}
}

// TestFabricResetDeterministicReuse is the warm-pool seam regression:
// a congestion-heavy scenario (router failure, degraded cable, ARN on)
// run on a reset-and-reused engine/fabric must reproduce the fresh
// build's event trace and outcome counters bit for bit. The reused run
// starts its flows from the free list the first run filled, whose
// stamps date from before Reset restarted the epoch counter. A traced
// send and a traced no-ARN send that stalls on a dead router ride
// along: each caller's done must fire exactly once and every span
// must close.
func TestFabricResetDeterministicReuse(t *testing.T) {
	cfg := Spider2Fabric()
	cfg.Torus = topology.Torus{NX: 5, NY: 4, NZ: 4}
	pl := topology.PlaceRouters(topology.CabinetGrid{Cols: 5, Rows: 2}, cfg.Torus, 16, 4)
	scenario := func(eng *sim.Engine, f *Fabric) (uint64, uint64, float64) {
		th := sim.NewTraceHash()
		eng.SetTrace(th.Observe)
		f.SetNotification(true)
		src := rng.New(3)
		send := func() {
			c := cfg.Torus.CoordOf(src.Intn(cfg.Torus.Nodes()))
			f.StartClientFlow(c, src.Intn(8), RouteFGR, 16e6, src, nil)
		}
		for i := 0; i < 200; i++ {
			send()
		}
		tr := spantrace.New(rng.New(9), 1)
		tr.Bind(eng)
		var tracedDone, stalledDone int
		traced := func(c topology.Coord, oss int, done func()) {
			f.Tracer = tr
			f.StartClientFlow(c, oss, RouteFGR, 16e6, src, done)
			f.Tracer = nil
		}
		traced(topology.Coord{X: 1, Y: 2, Z: 3}, 5, func() { tracedDone++ })
		eng.At(sim.FromSeconds(0.05), func() {
			f.FailRouter(src.Intn(f.NumRouters()))
			f.Net.Degrade(f.RouterUpLinks()[src.Intn(f.NumRouters())], 0.25)
			for i := 0; i < 100; i++ {
				send()
			}
			// Without ARN the sender picks FGR's router for (c, oss)
			// although it is dead, stalls, and reroutes.
			f.SetNotification(false)
			c, oss := topology.Coord{X: 4, Y: 0, Z: 2}, 6
			f.FailRouter(f.selectRouter(c, f.ossLeaf[oss], RouteFGR, nil, nil))
			traced(c, oss, func() { stalledDone++ })
		})
		eng.Run()
		if tracedDone != 1 || stalledDone != 1 {
			t.Fatalf("traced send done %d times, stalled send %d, want 1 and 1", tracedDone, stalledDone)
		}
		if f.StalledSends == 0 {
			t.Fatal("no-ARN send to a dead router did not stall")
		}
		if tr.Len() == 0 || tr.Open() != 0 {
			t.Fatalf("tracer recorded %d spans with %d left open, want some and none open", tr.Len(), tr.Open())
		}
		return th.Sum(), f.Net.FlowsCompleted, f.Net.BytesDelivered
	}

	freshEng := sim.NewEngine()
	freshFab := NewFabric(freshEng, cfg, pl, 8)
	wantTrace, wantDone, wantBytes := scenario(freshEng, freshFab)
	if wantDone == 0 {
		t.Fatal("scenario completed no flows")
	}

	eng := sim.NewEngine()
	fab := NewFabric(eng, cfg, pl, 8)
	if _, _, _ = scenario(eng, fab); fab.Net.ActiveFlows() != 0 {
		t.Fatal("drained scenario left flows in flight")
	}
	eng.Reset()
	if err := fab.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if fab.RouterFailed(0) || fab.StalledSends != 0 || fab.Net.FlowsStarted != 0 {
		t.Fatal("fabric state survived Reset")
	}
	if len(fab.Net.free) == 0 {
		t.Fatal("no pooled flows for the reused run to start from")
	}
	gotTrace, gotDone, gotBytes := scenario(eng, fab)
	if gotTrace != wantTrace {
		t.Fatalf("reused fabric trace %#x != fresh trace %#x", gotTrace, wantTrace)
	}
	if gotDone != wantDone || gotBytes != wantBytes {
		t.Fatalf("reused outcome %d/%g != fresh %d/%g", gotDone, gotBytes, wantDone, wantBytes)
	}
}

// TestNetworkResetRefusesInFlight pins the drain-first contract: Reset
// with a transfer mid-flight must fail rather than invent completion
// semantics for it.
func TestNetworkResetRefusesInFlight(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("solo", 1e9, 0)
	n.StartFlow([]*Link{l}, 1e9, nil)
	if err := n.Reset(); err == nil {
		t.Fatal("Reset succeeded with a flow in flight")
	}
	eng.Run()
	if err := n.Reset(); err != nil {
		t.Fatalf("Reset after drain: %v", err)
	}
	if l.BytesCarried != 0 || l.MaxFlows != 0 || n.FlowsStarted != 0 {
		t.Fatal("counters survived Reset")
	}
}

// TestFabricRunDeterministic runs a congestion-heavy full-fabric
// scenario (small torus, fan-in to few OSSes, a router burst and a
// degraded cable mid-run) twice and compares event traces — the
// netsim-level half of the center-wide determinism contract.
func TestFabricRunDeterministic(t *testing.T) {
	run := func() (uint64, uint64, float64) {
		eng := sim.NewEngine()
		th := sim.NewTraceHash()
		eng.SetTrace(th.Observe)
		cfg := Spider2Fabric()
		cfg.Torus = topology.Torus{NX: 5, NY: 4, NZ: 4}
		pl := topology.PlaceRouters(topology.CabinetGrid{Cols: 5, Rows: 2}, cfg.Torus, 16, 4)
		f := NewFabric(eng, cfg, pl, 8)
		f.SetNotification(true)
		src := rng.New(3)
		send := func() {
			c := cfg.Torus.CoordOf(src.Intn(cfg.Torus.Nodes()))
			f.StartClientFlow(c, src.Intn(8), RouteFGR, 16e6, src, nil)
		}
		for i := 0; i < 200; i++ {
			send()
		}
		eng.At(sim.FromSeconds(0.05), func() {
			f.FailRouter(src.Intn(f.NumRouters()))
			f.Net.Degrade(f.RouterUpLinks()[src.Intn(f.NumRouters())], 0.25)
			for i := 0; i < 100; i++ {
				send()
			}
		})
		eng.Run()
		return th.Sum(), f.Net.FlowsCompleted, f.Net.BytesDelivered
	}
	h1, c1, b1 := run()
	h2, c2, b2 := run()
	if h1 != h2 {
		t.Fatalf("fabric event traces differ: %x vs %x", h1, h2)
	}
	if c1 != c2 || b1 != b2 {
		t.Fatalf("fabric outcomes differ: %d/%g vs %d/%g", c1, b1, c2, b2)
	}
	if c1 == 0 {
		t.Fatal("scenario completed no flows")
	}
}
