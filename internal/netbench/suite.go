package netbench

import (
	"fmt"
	"strings"
	"testing"

	"spiderfs/internal/netsim"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

// Result is one benchmark measurement.
type Result struct {
	Name            string  `json:"name"`
	NsPerOp         float64 `json:"ns_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	FlowEventsPerOp float64 `json:"flow_events_per_op,omitempty"`
	NsPerFlowEvent  float64 `json:"ns_per_flow_event,omitempty"`
}

// Scale records the fabric dimensions of the full-scale benchmark.
type Scale struct {
	Clients    int `json:"clients"`
	Routers    int `json:"routers"`
	OSSes      int `json:"osses"`
	TorusNodes int `json:"torus_nodes"`
	Links      int `json:"links"`
}

// Schema identifies the BENCH_netsim.json shape.
const Schema = "spiderfs-netsim-bench/1"

// Suite is the JSON artifact (BENCH_netsim.json) format.
type Suite struct {
	Schema string `json:"schema"`
	// Scale is present when the full Spider II-scale benchmark ran.
	Scale   *Scale   `json:"scale,omitempty"`
	Results []Result `json:"results"`
	// The headline regression numbers: the ordered registries versus the
	// frozen map baseline on the identical start/finish churn workload.
	StartFinishAllocRatio float64 `json:"start_finish_alloc_ratio"`
	StartFinishSpeedup    float64 `json:"start_finish_speedup"`
}

func measure(name string, fn func(b *testing.B)) Result {
	r := testing.Benchmark(fn)
	return Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// The churn workload: flows of 1 MB across one or two of eight shared
// 1 GB/s links, picks drawn from a fixed seed, the engine drained every
// 64 starts. Both implementations consume the identical pick stream, so
// the comparison isolates the bookkeeping.
const (
	churnLinks = 8
	churnDrain = 64
	churnSeed  = 1
)

func churnOrdered(b *testing.B) {
	eng := sim.NewEngine()
	n := netsim.NewNetwork(eng)
	links := make([]*netsim.Link, churnLinks)
	for i := range links {
		links[i] = n.NewLink("l", 1e9, 0)
	}
	src := rng.New(churnSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := []*netsim.Link{links[src.Intn(churnLinks)], links[src.Intn(churnLinks)]}
		if path[0] == path[1] {
			path = path[:1]
		}
		n.StartFlow(path, 1e6, nil)
		if i%churnDrain == churnDrain-1 {
			eng.Run()
		}
	}
	eng.Run()
}

func churnBaseline(b *testing.B) {
	eng := sim.NewEngine()
	n := newMapNetwork(eng)
	links := make([]*mapLink, churnLinks)
	for i := range links {
		links[i] = n.newLink(1e9, 0)
	}
	src := rng.New(churnSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := []*mapLink{links[src.Intn(churnLinks)], links[src.Intn(churnLinks)]}
		if path[0] == path[1] {
			path = path[:1]
		}
		n.start(path, 1e6, nil)
		if i%churnDrain == churnDrain-1 {
			eng.Run()
		}
	}
	eng.Run()
}

// The full-scale workload: Titan's 18,688 compute clients (two per
// Gemini ASIC on the 25x16x24 torus), the production router placement
// (110 I/O modules, 440 LNET routers), and Spider II's 288 OSSes. Each
// op launches a wave of striped writes — enough concurrency that every
// OSS port and router serves several flows at once — and drains it, so
// the measured cost is the start/finish/re-rate path under congestion.
const (
	spider2Clients = 18688
	spider2OSSes   = 288
	spider2Batch   = 2048
	spider2Bytes   = 32e6
)

func spider2Congestion(events *float64, scale *Scale) func(b *testing.B) {
	return func(b *testing.B) {
		eng := sim.NewEngine()
		cfg := netsim.Spider2Fabric()
		pl := topology.PlaceRouters(topology.TitanCabinets(), cfg.Torus, 110, 9)
		f := netsim.NewFabric(eng, cfg, pl, spider2OSSes)
		if scale != nil {
			*scale = Scale{
				Clients:    spider2Clients,
				Routers:    f.NumRouters(),
				OSSes:      spider2OSSes,
				TorusNodes: cfg.Torus.Nodes(),
				Links:      len(f.Net.Links()),
			}
		}
		src := rng.New(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < spider2Batch; j++ {
				client := src.Intn(spider2Clients)
				c := cfg.Torus.CoordOf(client % cfg.Torus.Nodes())
				f.StartClientFlow(c, src.Intn(spider2OSSes), netsim.RouteFGR, spider2Bytes, src, nil)
			}
			eng.Run()
		}
		b.StopTimer()
		*events = float64(eng.Fired()) / float64(b.N)
	}
}

// Run executes the suite. full=false skips the Spider II-scale fabric
// benchmark (tests use that; the checked-in artifact is generated with
// full=true via `go run ./cmd/benchsuite -netsim -out BENCH_netsim.json`).
func Run(full bool) Suite {
	s := Suite{Schema: Schema}
	base := measure("start_finish/map_baseline", churnBaseline)
	ord := measure("start_finish/ordered", churnOrdered)
	s.Results = append(s.Results, base, ord)
	if ord.AllocsPerOp > 0 {
		s.StartFinishAllocRatio = float64(base.AllocsPerOp) / float64(ord.AllocsPerOp)
	}
	if ord.NsPerOp > 0 {
		s.StartFinishSpeedup = base.NsPerOp / ord.NsPerOp
	}
	if full {
		var events float64
		var scale Scale
		r := measure("spider2_congestion/ordered", spider2Congestion(&events, &scale))
		r.FlowEventsPerOp = events
		if events > 0 {
			r.NsPerFlowEvent = r.NsPerOp / events
		}
		s.Results = append(s.Results, r)
		s.Scale = &scale
	}
	return s
}

// Render formats the suite as a table for stdout.
func (s Suite) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14s %12s %12s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	for _, r := range s.Results {
		fmt.Fprintf(&b, "%-28s %14.0f %12d %12d\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		if r.FlowEventsPerOp > 0 {
			fmt.Fprintf(&b, "%-28s %.0f flow events/op, %.0f ns/flow-event\n",
				"", r.FlowEventsPerOp, r.NsPerFlowEvent)
		}
	}
	if s.Scale != nil {
		fmt.Fprintf(&b, "scale: %d clients, %d routers, %d OSSes, %d torus nodes, %d links\n",
			s.Scale.Clients, s.Scale.Routers, s.Scale.OSSes, s.Scale.TorusNodes, s.Scale.Links)
	}
	fmt.Fprintf(&b, "start/finish vs map baseline: %.1fx fewer allocs/op, %.1fx faster\n",
		s.StartFinishAllocRatio, s.StartFinishSpeedup)
	return b.String()
}
