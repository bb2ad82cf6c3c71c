package experiment

import (
	"fmt"

	"spiderfs/internal/lustre"
	"spiderfs/internal/netsim"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/stats"
	"spiderfs/internal/topology"
	"spiderfs/internal/workload"
)

// The ablations switch off one design choice at a time: the §IV-D
// OLCF-funded Lustre features (high-performance journaling, imperative
// recovery, asymmetric router notification), the §IV-C DNE
// recommendation, and the §VII best practices.

// A1 streams 128 MiB onto a namespace at seed with synchronous and with
// high-performance (asynchronous) journaling (§IV-D). Headline: the
// async over sync write rate.
func A1(seed uint64) Result {
	journal := func(mode lustre.JournalMode) float64 {
		return streamMBps(seed, func(o *lustre.OST) { o.Journal = mode }, "j/data", 4, 128<<20, 1<<20)
	}
	hp, sync := journal(lustre.HPJournal), journal(lustre.SyncJournal)
	return Result{"A1 ablation: high-performance journaling (paper Sec. IV-D)", fmt.Sprintf(
		"sustained write: sync journal %.0f MB/s -> async (funded) %.0f MB/s = %.2fx\n",
		sync, hp, hp/sync), hp / sync}
}

// A2 measures the application stall across an OSS failover without and
// with imperative recovery (§IV-D), both on a namespace at seed.
// Headline: how many times shorter the stall is with it.
func A2(seed uint64) Result {
	without, with := recoveryStall(seed, false), recoveryStall(seed, true)
	return Result{"A2 ablation: imperative recovery (paper Sec. IV-D)", fmt.Sprintf(
		"application stall across an OSS failover: %v without IR -> %v with IR (%.1fx shorter)\n",
		without, with, float64(without)/float64(with)),
		float64(without) / float64(with)}
}

func recoveryStall(seed uint64, imperative bool) sim.Time {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	var file *lustre.File
	fs.CreateOn("app/out", []int{0}, func(f *lustre.File) { file = f })
	eng.Run()
	_ = lustre.FailOSS(fs, 0, imperative, nil) // OSS 0 of a fresh namespace is up
	start := eng.Now()
	var doneAt sim.Time
	client.WriteStream(file, 8<<20, 1<<20, func(int64) { doneAt = eng.Now() })
	eng.Run()
	return doneAt - start
}

// A3 starts 24 transfers over the mini fabric right after a router
// dies, without and with asymmetric router notification (§IV-D), route
// choices drawn at seed. Headline: how many times sooner they finish
// with it.
func A3(seed uint64) Result {
	run := func(arn bool) (sim.Time, uint64) {
		eng, f := miniFabric()
		torus := f.Cfg.Torus
		f.SetNotification(arn)
		src := rng.New(seed)
		f.FailRouter(0)
		for i := 0; i < 24; i++ {
			c := torus.CoordOf((i * 11) % torus.Nodes())
			f.StartClientFlow(c, i%32, netsim.RouteFGR, 2e8, src, nil)
		}
		eng.Run()
		return eng.Now(), f.StalledSends
	}
	withoutT, withoutS := run(false)
	withT, withS := run(true)
	return Result{"A3 ablation: asymmetric router notification (paper Sec. IV-D)", fmt.Sprintf(
		"24 transfers with a dead router: without ARN %v (%d senders stalled on LNET timeouts) -> with ARN %v (%d stalls)\n",
		withoutT, withoutS, withT, withS), float64(withoutT) / float64(withT)}
}

// A4 runs a 4,000-create storm from 64 workers against one MDT and
// against four DNE-sharded MDTs, both on a namespace at seed (§IV-C).
// Headline: the DNE speedup.
func A4(seed uint64) Result {
	storm := func(mdts int) sim.Time {
		eng := sim.NewEngine()
		fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
		if mdts > 1 {
			fs.EnableDNE(mdts)
		}
		start := eng.Now()
		sim.Workers(4000, 64, func(_, i int, next func()) {
			fs.Create(fmt.Sprintf("dir%03d/f%06d", i%64, i), 1, func(*lustre.File) { next() })
		}, nil)
		eng.Run()
		return eng.Now() - start
	}
	t1, t4 := storm(1), storm(4)
	return Result{"A4 ablation: DNE metadata sharding (paper Sec. IV-C)", fmt.Sprintf(
		"4,000 creates: 1 MDT %v -> 4 MDTs %v (%.1fx); the paper recommends DNE + multiple namespaces together\n",
		t1, t4, float64(t1)/float64(t4)), float64(t1) / float64(t4)}
}

// A5 stats one small file 2,000 times at stripe count 1 and 4 on a
// namespace at seed with a 1 µs MDS stat and single-core OSSes, so the
// per-stripe OSS glimpses dominate (§VII). Headline: the stripe-4 over
// stripe-1 time.
func A5(seed uint64) Result {
	storm := func(stripes int) sim.Time {
		eng := sim.NewEngine()
		p := lustre.TestNamespace()
		p.MDSCfg.Stat = sim.Microsecond // expose the OSS glimpse cost
		p.OSSCfg.Cores = 1
		fs := lustre.Build(eng, p, rng.New(seed))
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
	s1, s4 := storm(1), storm(4)
	return Result{"A5 ablation: small-file stripe count (paper Sec. VII best practices)", fmt.Sprintf(
		"2,000 stats: stripe-1 %v vs stripe-4 %v (%.1fx) — why the paper says to keep small files at stripe count 1\n",
		s1, s4, float64(s4)/float64(s1)), float64(s4) / float64(s1)}
}

// A6 streams 64 MiB onto a 1-stripe file on a namespace at seed in
// stripe-aligned 1 MiB and in unaligned 68 KiB requests (§VII).
// Headline: the aligned over unaligned write rate.
func A6(seed uint64) Result {
	write := func(xfer int64) float64 {
		return streamMBps(seed, func(*lustre.OST) {}, "align/f", 1, 64<<20, xfer)
	}
	aligned, small := write(1<<20), write(68<<10)
	return Result{"A6 ablation: stripe-aligned I/O (paper Sec. VII best practices)", fmt.Sprintf(
		"64 MiB stream: 1 MiB aligned RPCs %.0f MB/s vs 68 KiB RPCs %.0f MB/s (%.1fx)\n",
		aligned, small, aligned/small), aligned / small}
}

// A7 probes another user's mean stat latency on a namespace at seed,
// quiet and during a make -j32 of 3,000 sources (§VII). Headline: the
// latency inflation.
func A7(seed uint64) Result {
	probe := func(withCompile bool) sim.Time {
		eng := sim.NewEngine()
		fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
		if withCompile {
			workload.RunCompile(fs, nil)
		}
		var mean sim.Time
		workload.MetadataLatencyProbe(fs, "user/data", 50, func(m sim.Time) { mean = m })
		eng.Run()
		return mean
	}
	quiet, busy := probe(false), probe(true)
	return Result{"A7 ablation: building code on the scratch FS (paper Sec. VII)", fmt.Sprintf(
		"another user's mean stat latency: %v quiet -> %v during a make -j32 (%.0fx) — why the paper tells users not to compile on Lustre\n",
		quiet, busy, float64(busy)/float64(quiet)), float64(busy) / float64(quiet)}
}

// A8 runs two periodic checkpointers on one namespace at seed, in phase
// and staggered by 1 s as signature-aware scheduling would place them
// (§VI-B, Lesson 18). Headline: the aligned over staggered p95 dump
// time.
func A8(seed uint64) Result {
	aligned, staggered := staggerP95(seed, 0), staggerP95(seed, sim.Second)
	return Result{"A8 ablation: IOSI-driven burst scheduling (paper Sec. VI-B, Lesson 18)", fmt.Sprintf(
		"two periodic checkpointers on one namespace, p95 dump time: aligned %.3fs -> signature-staggered %.3fs (%.1fx)\n",
		aligned, staggered, aligned/staggered), aligned / staggered}
}

// staggerP95 is A8's run: the p95 of five 96 MiB dumps per application
// every 2 s, the second application starting offset after the first.
func staggerP95(seed uint64, offset sim.Time) float64 {
	eng := sim.NewEngine()
	p := lustre.TestNamespace()
	p.CtrlCfg.Bps = 2.5e9
	p.CtrlCfg.Slots = 8
	fs := lustre.Build(eng, p, rng.New(seed))
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
