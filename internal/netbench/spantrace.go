package netbench

import (
	"fmt"
	"strings"
	"testing"

	"spiderfs/internal/netsim"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/topology"
)

// The spantrace overhead benchmark: the Spider II-scale congestion
// workload run twice on identical seeds — once untraced, once with a
// sampling tracer attached to the fabric — so the delta is exactly the
// cost of the tracing plane. The acceptance bar for the plane is <=5%
// wall-clock overhead at 1-in-64 sampling (the always-on production
// setting); anything dearer would make operators turn it off, which is
// how observability planes die.
const spantraceEvery = 64

// spider2Spans is spider2Congestion with an optional tracer. every<=0
// runs untraced; batch lets the smoke tests shrink the wave while the
// artifact uses the production spider2Batch.
func spider2Spans(every, batch int, spans *float64) func(b *testing.B) {
	return func(b *testing.B) {
		eng := sim.NewEngine()
		cfg := netsim.Spider2Fabric()
		pl := topology.PlaceRouters(topology.TitanCabinets(), cfg.Torus, 110, 9)
		f := netsim.NewFabric(eng, cfg, pl, spider2OSSes)
		var tr *spantrace.Tracer
		if every > 0 {
			tr = spantrace.New(rng.New(9), every)
			tr.Bind(eng)
			f.Tracer = tr
		}
		src := rng.New(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				client := src.Intn(spider2Clients)
				c := cfg.Torus.CoordOf(client % cfg.Torus.Nodes())
				f.StartClientFlow(c, src.Intn(spider2OSSes), netsim.RouteFGR, spider2Bytes, src, nil)
			}
			eng.Run()
		}
		b.StopTimer()
		if spans != nil {
			*spans = float64(tr.Len()) / float64(b.N)
		}
	}
}

// SpanSchema identifies the BENCH_spantrace.json shape.
const SpanSchema = "spiderfs-spantrace-bench/1"

// SpanSuite is the JSON artifact (BENCH_spantrace.json) format.
type SpanSuite struct {
	Schema      string `json:"schema"`
	Scale       *Scale `json:"scale,omitempty"`
	SampleEvery int    `json:"sample_every"`
	// Untraced and Traced run the identical flow schedule; the tracer is
	// the only difference between them.
	Untraced Result `json:"untraced"`
	Traced   Result `json:"traced"`
	// OverheadFrac is (traced - untraced) / untraced wall clock;
	// the acceptance ceiling is 0.05 at 1-in-64 sampling.
	OverheadFrac float64 `json:"overhead_frac"`
	SpansPerOp   float64 `json:"spans_per_op"`
}

// RunSpans measures tracing overhead. full=true uses the production
// 2,048-flow waves of the Spider II congestion benchmark (the artifact
// generator: `go run ./cmd/benchsuite -spantrace -out
// BENCH_spantrace.json`); full=false shrinks the wave so tests stay
// quick.
func RunSpans(full bool) SpanSuite {
	batch := 128
	if full {
		batch = spider2Batch
	}
	s := SpanSuite{Schema: SpanSchema, SampleEvery: spantraceEvery}
	s.Untraced = measure("spider2_congestion/untraced", spider2Spans(0, batch, nil))
	var spans float64
	s.Traced = measure(fmt.Sprintf("spider2_congestion/traced_1in%d", spantraceEvery),
		spider2Spans(spantraceEvery, batch, &spans))
	s.SpansPerOp = spans
	if s.Untraced.NsPerOp > 0 {
		s.OverheadFrac = (s.Traced.NsPerOp - s.Untraced.NsPerOp) / s.Untraced.NsPerOp
	}
	if full {
		cfg := netsim.Spider2Fabric()
		eng := sim.NewEngine()
		f := netsim.NewFabric(eng, cfg, topology.PlaceRouters(topology.TitanCabinets(), cfg.Torus, 110, 9), spider2OSSes)
		s.Scale = &Scale{
			Clients:    spider2Clients,
			Routers:    f.NumRouters(),
			OSSes:      spider2OSSes,
			TorusNodes: cfg.Torus.Nodes(),
			Links:      len(f.Net.Links()),
		}
	}
	return s
}

// Render formats the span suite as a table for stdout.
func (s SpanSuite) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %14s %12s %12s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	for _, r := range []Result{s.Untraced, s.Traced} {
		fmt.Fprintf(&b, "%-36s %14.0f %12d %12d\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	if s.Scale != nil {
		fmt.Fprintf(&b, "scale: %d clients, %d routers, %d OSSes, %d torus nodes, %d links\n",
			s.Scale.Clients, s.Scale.Routers, s.Scale.OSSes, s.Scale.TorusNodes, s.Scale.Links)
	}
	fmt.Fprintf(&b, "tracing overhead at 1-in-%d sampling: %.2f%% wall clock, %.0f spans/op (ceiling 5%%)\n",
		s.SampleEvery, s.OverheadFrac*100, s.SpansPerOp)
	return b.String()
}
