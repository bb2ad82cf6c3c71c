package main

import (
	"spiderfs/internal/netsim"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

// fabricWaves drives the Spider II-scale fabric alone, as the netbench
// congestion benchmark does: Titan's 18,688 clients (two per Gemini ASIC
// on the 25x16x24 torus), 440 LNET routers in 110 I/O modules and 288
// OSSes. Each wave starts 2,048 FGR-routed 32 MB client-to-OSS flows and
// drains them. Set-up is the fabric build; the calibrated work is 900
// waves.
var fabricWaves = workload{name: "fabric-waves", setup: setupFabric}

const (
	fabricClients = 18688
	fabricOSSes   = 288
	fabricFlows   = 2048
	fabricBytes   = 32e6
	fabricWavesN  = 900
)

type fabricJob struct {
	o   options
	eng *sim.Engine
	f   *netsim.Fabric
}

func setupFabric(o options, tr *tracer) (job, error) {
	sp := tr.begin("netsim.build", -1, -1)
	eng := sim.NewEngine()
	cfg := netsim.Spider2Fabric()
	pl := topology.PlaceRouters(topology.TitanCabinets(), cfg.Torus, 110, 9)
	f := netsim.NewFabric(eng, cfg, pl, fabricOSSes)
	tr.end(sp)
	return &fabricJob{o: o, eng: eng, f: f}, nil
}

func (j *fabricJob) run(tr *tracer) *outcome {
	out := newOutcome()
	src := rng.New(j.o.seed)
	tor := j.f.Cfg.Torus
	net := j.f.Net
	waves := j.o.scaled(fabricWavesN)
	for w := 0; w < waves; w++ {
		out.attempted++
		sp := tr.begin("fabric.wave", -1, w)
		before := net.FlowsCompleted
		st := tr.begin("netsim.start", sp, w)
		for i := 0; i < fabricFlows; i++ {
			c := tor.CoordOf(src.Intn(fabricClients) % tor.Nodes())
			j.f.StartClientFlow(c, src.Intn(fabricOSSes), netsim.RouteFGR, fabricBytes, src, nil)
		}
		tr.end(st)
		dr := tr.begin("netsim.drain", sp, w)
		j.eng.Run()
		tr.end(dr)
		tr.end(sp)
		if net.FlowsCompleted-before != fabricFlows || net.ActiveFlows() != 0 {
			out.failed++
		}
	}
	out.foldWord(uint64(j.eng.Now()))
	out.counter("sim.events", float64(j.eng.Fired()))
	out.counter("netsim.flows_started", float64(net.FlowsStarted))
	out.counter("netsim.flows_completed", float64(net.FlowsCompleted))
	out.counter("netsim.gb_delivered", net.BytesDelivered/1e9)
	out.counter("netsim.stalled_sends", float64(j.f.StalledSends))
	out.counter("netsim.dropped_flows", float64(j.f.DroppedFlows))
	out.counter("netsim.links", float64(len(net.Links())))
	return out
}

func (j *fabricJob) verify(out *outcome) {
	net := j.f.Net
	want := uint64(out.attempted) * fabricFlows
	if net.FlowsStarted != want || net.FlowsCompleted != want {
		out.problem("%d flows started and %d completed, want %d of each", net.FlowsStarted, net.FlowsCompleted, want)
	}
}

func (j *fabricJob) close() {}
