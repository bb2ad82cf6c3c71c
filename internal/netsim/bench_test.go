package netsim

import (
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/topology"
)

func placementForBench(cfg FabricConfig) topology.Placement {
	return topology.PlaceRouters(topology.TitanCabinets(), cfg.Torus, 110, 9)
}

// The churn workload: 1 MB flows across one or two of eight shared
// 1 GB/s links, the engine drained every churnDrain starts.
const (
	churnLinks = 8
	churnDrain = 64
)

func newChurnNetwork() (*sim.Engine, *Network, []*Link) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	links := make([]*Link, churnLinks)
	for i := range links {
		links[i] = n.NewLink("l", 1e9, 0)
	}
	return eng, n, links
}

// startChurnFlow starts one churn flow on links picked from src.
func startChurnFlow(n *Network, links []*Link, src *rng.Source) {
	path := []*Link{links[src.Intn(len(links))], links[src.Intn(len(links))]}
	if path[0] == path[1] {
		path = path[:1]
	}
	n.StartFlow(path, 1e6, nil)
}

// BenchmarkFlowChurn measures flow setup/teardown with fair-share
// re-rating on a shared link — netsim's dominant cost in big runs.
func BenchmarkFlowChurn(b *testing.B) {
	eng, n, links := newChurnNetwork()
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		startChurnFlow(n, links, src)
		if i%churnDrain == churnDrain-1 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkSpider2Congestion drives the production-scale fabric —
// Titan's 18,688 clients on the 25x16x24 torus, 440 LNET routers, 288
// OSSes — through waves of concurrent striped writes with enough fan-in
// that every OSS port and router carries several flows. Each op starts
// one wave and drains it, so the number is the cost of the whole
// start/re-rate/finish machinery under congestion.
//
// The two sub-benchmarks run the identical flow schedule, once untraced
// and once with a 1-in-64 sampling tracer on the fabric (the always-on
// production setting), so their difference is the cost of the tracing
// plane.
func BenchmarkSpider2Congestion(b *testing.B) {
	b.Run("untraced", func(b *testing.B) { spider2Congestion(b, 0) })
	b.Run("traced_1in64", func(b *testing.B) { spider2Congestion(b, 64) })
}

// spider2Congestion runs the congestion waves; every > 0 attaches a
// tracer sampling one request in every and reports spans/op.
func spider2Congestion(b *testing.B, every int) {
	const (
		clients = 18688
		nOSS    = 288
		batch   = 2048
	)
	eng := sim.NewEngine()
	cfg := Spider2Fabric()
	f := NewFabric(eng, cfg, placementForBench(cfg), nOSS)
	var tr *spantrace.Tracer
	if every > 0 {
		tr = spantrace.New(rng.New(9), every)
		tr.Bind(eng)
		f.Tracer = tr
	}
	src := rng.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			c := cfg.Torus.CoordOf(src.Intn(clients) % cfg.Torus.Nodes())
			f.StartClientFlow(c, src.Intn(nOSS), RouteFGR, 32e6, src, nil)
		}
		eng.Run()
	}
	b.StopTimer()
	if fired := eng.Fired(); fired > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/flow-event")
	}
	if tr != nil {
		b.ReportMetric(float64(tr.Len())/float64(b.N), "spans/op")
	}
}

// BenchmarkNewFabric is the fabric-construction rung: one Spider II
// build (18,688 clients on the 25x16x24 torus, 440 routers, 288 OSSes,
// 68,440 links) per op.
func BenchmarkNewFabric(b *testing.B) {
	eng := sim.NewEngine()
	cfg := Spider2Fabric()
	pl := placementForBench(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fabricSink = NewFabric(eng, cfg, pl, 288)
	}
}

// fabricSink keeps BenchmarkNewFabric's build from being optimized away.
var fabricSink *Fabric

// BenchmarkClientPathFGR measures route computation on the full Titan
// fabric.
func BenchmarkClientPathFGR(b *testing.B) {
	eng := sim.NewEngine()
	cfg := Spider2Fabric()
	pl := placementForBench(cfg)
	f := NewFabric(eng, cfg, pl, 144)
	src := rng.New(2)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := cfg.Torus.CoordOf(i % cfg.Torus.Nodes())
		_ = clientPath(f, c, i%144, RouteFGR, src)
	}
}
