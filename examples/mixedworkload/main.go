// Mixedworkload: the data-centric tension of §II. Checkpoint bursts and
// latency-sensitive analytics share one namespace; run them in
// isolation and mixed, and watch the analytics latency degrade under
// the competing write burst — the tradeoff Lesson 1 is about.
package main

import (
	"fmt"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
	"spiderfs/internal/workload"
)

func analyticsLatency(withCheckpoint bool) workload.AnalyticsResult {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(11))

	if withCheckpoint {
		// A simulation enters its checkpoint phase on the same namespace.
		writer := lustre.NewClient(500, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
		var ck *lustre.File
		fs.Create("sim/ckpt", 4, func(f *lustre.File) { ck = f })
		eng.Run()
		writer.WriteUntil(ck, eng.Now()+30*sim.Second, 1<<20, nil)
	}

	return workload.RunAnalytics(fs, workload.AnalyticsConfig{
		Readers:  4,
		Requests: 50,
	})
}

func main() {
	quiet := analyticsLatency(false)
	mixed := analyticsLatency(true)

	fmt.Println("analytics read latency (random 64 KiB requests):")
	fmt.Printf("  quiet system:          mean %6.2f ms, p95 %6.2f ms\n",
		quiet.Latency.Mean, quiet.P95Millis)
	fmt.Printf("  vs checkpoint traffic: mean %6.2f ms, p95 %6.2f ms\n",
		mixed.Latency.Mean, mixed.P95Millis)
	fmt.Printf("\ninterference: %.1fx mean latency — the §II mixed-workload contention\n",
		mixed.Latency.Mean/quiet.Latency.Mean)
	fmt.Println("(machine-exclusive systems avoid this by paying for data movement instead)")
}
