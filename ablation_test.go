// Ablation benchmarks for the design choices and direct-funded Lustre
// features DESIGN.md calls out: the §IV-D product extensions
// (high-performance journaling, imperative recovery, asymmetric router
// notification), the DNE metadata recommendation, and the striping best
// practices of §VII.
package spiderfs_test

import (
	"fmt"
	"testing"

	"spiderfs/internal/lustre"
	"spiderfs/internal/netsim"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/stats"
	"spiderfs/internal/topology"
	"spiderfs/internal/workload"
)

// --- A1: high-performance Lustre journaling (§IV-D) ---

func journalThroughput(mode lustre.JournalMode) float64 {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(2100))
	for _, ost := range fs.OSTs {
		ost.Journal = mode
	}
	client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	var file *lustre.File
	fs.Create("j/data", 4, func(f *lustre.File) { file = f })
	eng.Run()
	start := eng.Now()
	total := int64(128 << 20)
	client.WriteStream(file, total, 1<<20, nil)
	eng.Run()
	return float64(total) / (eng.Now() - start).Seconds() / 1e6
}

func BenchmarkAblationJournaling(b *testing.B) {
	var hp, sync float64
	for i := 0; i < b.N; i++ {
		hp = journalThroughput(lustre.HPJournal)
		sync = journalThroughput(lustre.SyncJournal)
	}
	printOnce("A1 ablation: high-performance journaling (paper Sec. IV-D)", fmt.Sprintf(
		"sustained write: sync journal %.0f MB/s -> async (funded) %.0f MB/s = %.2fx\n",
		sync, hp, hp/sync))
	b.ReportMetric(hp/sync, "hp/sync")
}

// --- A2: imperative recovery (§IV-D) ---

func BenchmarkAblationImperativeRecovery(b *testing.B) { benchStudy(b, "recovery") }

// --- A3: asymmetric router notification (§IV-D) ---

func arnCompletion(arn bool) (sim.Time, uint64) {
	eng := sim.NewEngine()
	cfg := netsim.Spider2Fabric()
	cfg.Torus = topology.Torus{NX: 5, NY: 4, NZ: 4}
	pl := topology.PlaceRouters(topology.CabinetGrid{Cols: 5, Rows: 2}, cfg.Torus, 16, 4)
	f := netsim.NewFabric(eng, cfg, pl, 32)
	f.SetNotification(arn)
	src := rng.New(2300)
	// A router dies mid-operation; 24 transfers follow.
	f.FailRouter(0)
	done := 0
	for i := 0; i < 24; i++ {
		c := cfg.Torus.CoordOf((i * 11) % cfg.Torus.Nodes())
		f.StartClientFlow(c, i%32, netsim.RouteFGR, 2e8, src, func() { done++ })
	}
	eng.Run()
	return eng.Now(), f.StalledSends
}

func BenchmarkAblationRouterNotification(b *testing.B) {
	var withT, withoutT sim.Time
	var withS, withoutS uint64
	for i := 0; i < b.N; i++ {
		withoutT, withoutS = arnCompletion(false)
		withT, withS = arnCompletion(true)
	}
	printOnce("A3 ablation: asymmetric router notification (paper Sec. IV-D)", fmt.Sprintf(
		"24 transfers with a dead router: without ARN %v (%d senders stalled on LNET timeouts) -> with ARN %v (%d stalls)\n",
		withoutT, withoutS, withT, withS))
	b.ReportMetric(float64(withoutT)/float64(withT), "completion-speedup")
}

// --- A4: DNE metadata scaling (§IV-C recommendation) ---

func dneStorm(mdts int) sim.Time {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(2400))
	if mdts > 1 {
		fs.EnableDNE(mdts, lustre.Spider2MDS())
	}
	start := eng.Now()
	issued := 0
	var worker func()
	worker = func() {
		if issued >= 4000 {
			return
		}
		i := issued
		issued++
		fs.Create(fmt.Sprintf("dir%03d/f%06d", i%64, i), 1, func(*lustre.File) { worker() })
	}
	for w := 0; w < 64; w++ {
		worker()
	}
	eng.Run()
	return eng.Now() - start
}

func BenchmarkAblationDNE(b *testing.B) {
	var t1, t4 sim.Time
	for i := 0; i < b.N; i++ {
		t1 = dneStorm(1)
		t4 = dneStorm(4)
	}
	printOnce("A4 ablation: DNE metadata sharding (paper Sec. IV-C)", fmt.Sprintf(
		"4,000 creates: 1 MDT %v -> 4 MDTs %v (%.1fx); the paper recommends DNE + multiple namespaces together\n",
		t1, t4, float64(t1)/float64(t4)))
	b.ReportMetric(float64(t1)/float64(t4), "dne-speedup")
}

// --- A5: stripe-count best practice for small files (§VII) ---

func statStorm(stripes int) sim.Time {
	eng := sim.NewEngine()
	p := lustre.TestNamespace()
	p.MDSCfg.Stat = sim.Microsecond // expose the OSS glimpse cost
	p.OSSCfg.Cores = 1
	fs := lustre.Build(eng, p, rng.New(2500))
	var file *lustre.File
	fs.Create("small/f", stripes, func(f *lustre.File) { file = f })
	eng.Run()
	start := eng.Now()
	for i := 0; i < 2000; i++ {
		fs.Stat(file, nil)
	}
	eng.Run()
	return eng.Now() - start
}

func BenchmarkAblationStripeCount(b *testing.B) {
	var s1, s4 sim.Time
	for i := 0; i < b.N; i++ {
		s1 = statStorm(1)
		s4 = statStorm(4)
	}
	printOnce("A5 ablation: small-file stripe count (paper Sec. VII best practices)", fmt.Sprintf(
		"2,000 stats: stripe-1 %v vs stripe-4 %v (%.1fx) — why the paper says to keep small files at stripe count 1\n",
		s1, s4, float64(s4)/float64(s1)))
	b.ReportMetric(float64(s4)/float64(s1), "stripe4/stripe1")
}

// --- A6: transfer alignment best practice (§VII) ---

func alignedWrite(xfer int64) float64 {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(2600))
	client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	var file *lustre.File
	fs.Create("align/f", 1, func(f *lustre.File) { file = f })
	eng.Run()
	start := eng.Now()
	total := int64(64 << 20)
	client.WriteStream(file, total, xfer, nil)
	eng.Run()
	return float64(total) / (eng.Now() - start).Seconds() / 1e6
}

// --- A7: "don't build code on Lustre" (§VII user behaviour) ---

func compileProbe(withCompile bool) sim.Time {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(2700))
	if withCompile {
		workload.RunCompile(fs, workload.CompileConfig{
			SourceFiles: 3000, StatsPerFile: 8, Parallelism: 32,
		}, nil)
	}
	var mean sim.Time
	workload.MetadataLatencyProbe(fs, "user/data", 50, func(m sim.Time) { mean = m })
	eng.Run()
	return mean
}

func BenchmarkAblationCompileOnScratch(b *testing.B) {
	var quiet, busy sim.Time
	for i := 0; i < b.N; i++ {
		quiet = compileProbe(false)
		busy = compileProbe(true)
	}
	printOnce("A7 ablation: building code on the scratch FS (paper Sec. VII)", fmt.Sprintf(
		"another user's mean stat latency: %v quiet -> %v during a make -j32 (%.0fx) — why the paper tells users not to compile on Lustre\n",
		quiet, busy, float64(busy)/float64(quiet)))
	b.ReportMetric(float64(busy)/float64(quiet), "latency-inflation")
}

// --- A8: IOSI-driven burst scheduling (§VI-B / Lesson 18) ---

func staggerP95(offset sim.Time) float64 {
	eng := sim.NewEngine()
	p := lustre.TestNamespace()
	p.CtrlCfg.Bps = 2.5e9
	p.CtrlCfg.Slots = 8
	fs := lustre.Build(eng, p, rng.New(2800))
	var durations []float64
	app := func(id int, start sim.Time) {
		client := lustre.NewClient(id, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
		period := 2 * sim.Second
		fs.Create(fmt.Sprintf("app%d/ckpt", id), 4, func(file *lustre.File) {
			var dump func(n int)
			dump = func(n int) {
				if n == 0 {
					return
				}
				t0 := eng.Now()
				client.WriteStream(file, 96<<20, 1<<20, func(int64) {
					durations = append(durations, (eng.Now() - t0).Seconds())
					eng.After(period, func() { dump(n - 1) })
				})
			}
			if eng.Now() >= start {
				dump(5)
			} else {
				eng.At(start, func() { dump(5) })
			}
		})
	}
	app(0, 0)
	app(1, offset)
	eng.Run()
	return stats.Percentile(durations, 0.95)
}

func BenchmarkAblationBurstScheduling(b *testing.B) {
	var aligned, staggered float64
	for i := 0; i < b.N; i++ {
		aligned = staggerP95(0)
		staggered = staggerP95(sim.Second)
	}
	printOnce("A8 ablation: IOSI-driven burst scheduling (paper Sec. VI-B, Lesson 18)", fmt.Sprintf(
		"two periodic checkpointers on one namespace, p95 dump time: aligned %.3fs -> signature-staggered %.3fs (%.1fx)\n",
		aligned, staggered, aligned/staggered))
	b.ReportMetric(aligned/staggered, "stagger-gain")
}

func BenchmarkAblationStripeAlignment(b *testing.B) {
	var aligned, small float64
	for i := 0; i < b.N; i++ {
		aligned = alignedWrite(1 << 20)
		small = alignedWrite(68 << 10) // unaligned 68 KiB requests
	}
	printOnce("A6 ablation: stripe-aligned I/O (paper Sec. VII best practices)", fmt.Sprintf(
		"64 MiB stream: 1 MiB aligned RPCs %.0f MB/s vs 68 KiB RPCs %.0f MB/s (%.1fx)\n",
		aligned, small, aligned/small))
	b.ReportMetric(aligned/small, "aligned-gain")
}
