package netsim

import (
	"math"
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

func TestDegradeSlowsActiveFlow(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("cable", 1e9, 0)
	var doneAt sim.Time
	n.StartFlow([]*Link{l}, 1e9, func() { doneAt = eng.Now() })
	eng.At(sim.FromSeconds(0.5), func() { n.Degrade(l, 0.25) })
	eng.Run()
	// 0.5 GB in the first 0.5 s, then 0.5 GB at 250 MB/s = 2 s more.
	if math.Abs(doneAt.Seconds()-2.5) > 1e-6 {
		t.Fatalf("done at %v, want 2.5s", doneAt)
	}
}

func TestRestoreRecovers(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("cable", 1e9, 0)
	n.Degrade(l, 0.1)
	if l.Cap != 1e8 {
		t.Fatalf("cap = %g", l.Cap)
	}
	n.Restore(l)
	if l.Cap != 1e9 {
		t.Fatalf("restored cap = %g", l.Cap)
	}
	n.Restore(l) // idempotent
	if l.Cap != 1e9 {
		t.Fatal("double restore changed capacity")
	}
}

func TestDegradeBadFracPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	l := n.NewLink("cable", 1e9, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.Degrade(l, 0)
}

func TestDegradedFabricVisibleInCongestion(t *testing.T) {
	eng := sim.NewEngine()
	f := smallFabric(eng)
	src := rng.New(10)
	weak := f.RouterUpLinks()[3]
	f.Net.Degrade(weak, 0.3)
	done := 0
	for i := 0; i < 16; i++ {
		c := f.Cfg.Torus.CoordOf((i * 5) % f.Cfg.Torus.Nodes())
		f.StartClientFlow(c, i%32, RouteFGR, 2e8, src, func() { done++ })
	}
	eng.Run()
	if done != 16 {
		t.Fatalf("done = %d", done)
	}
	_ = topology.Coord{}
}
