// Operations: a day in the life of the Spider operations team. Runs the
// monitoring stack (checks, controller pollers, event coalescing), a
// background disk-failure process with automatic rebuilds, production
// I/O, and the nightly purge — all on one engine, printing the
// operational picture at the end. A second act hands the center to the
// chaos campaign engine for a day of correlated, cascading faults and
// prints the availability report it leaves behind.
package main

import (
	"fmt"

	"spiderfs/internal/chaos"
	"spiderfs/internal/failure"
	"spiderfs/internal/lustre"
	"spiderfs/internal/monitor"
	"spiderfs/internal/purge"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/tools"
	"spiderfs/internal/topology"
)

func main() {
	eng := sim.NewEngine()
	src := rng.New(2026)
	fs := lustre.Build(eng, lustre.TestNamespace(), src.Split("fs"))

	// Monitoring: standard checks + controller pollers + coalescer.
	sched := monitor.NewScheduler(eng)
	for _, c := range monitor.StandardChecks(fs) {
		sched.Add(c)
	}
	sched.Start()
	store := monitor.NewStore()
	poller := monitor.NewControllerPoller(eng, store, fs.Ctrls, 10*sim.Second)
	coal := &monitor.Coalescer{}

	// Fault injection: an aggressive failure rate so a day shows action,
	// plus one cable flap.
	inj := failure.NewInjector(eng, fsGroups(fs), failure.DiskFailureConfig{
		AnnualFailureRate: 40, ReplaceDelay: 30 * sim.Minute,
	}, src.Split("faults"))
	inj.Events = coal.Ingest
	inj.Start()
	failure.CableFlap(eng, coal.Ingest, "ib-leaf2-port14", 6*sim.Hour)

	// Production: periodic job output + nightly purge (1-day retention
	// so a single simulated day shows deletions).
	client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	hour := 0
	var produce func()
	produce = func() {
		if hour >= 20 {
			return
		}
		tools.Populate(fs, tools.TreeSpec{Dirs: 1, FilesPerDir: 10, FileSize: 32 << 20,
			Root: fmt.Sprintf("job-h%02d", hour)})
		fs.Create(fmt.Sprintf("live/h%02d", hour), 2, func(file *lustre.File) {
			client.WriteStream(file, 64<<20, 1<<20, nil)
		})
		hour++
		eng.After(sim.Hour, produce)
	}
	produce()

	purger := purge.New(fs, purge.Policy{MaxAge: 8 * sim.Hour, Interval: 6 * sim.Hour, Concurrency: 8})
	purger.Start()

	// Run one simulated day.
	eng.RunUntil(24 * sim.Hour)
	inj.Stop()
	purger.Stop()
	poller.Stop()
	sched.Stop()
	eng.Run()
	coal.Close()

	fmt.Println("=== operations summary after 24 simulated hours ===")
	fmt.Printf("disk failures: %d (rebuilds started: %d, data loss events: %d)\n",
		inj.Failures, inj.Rebuilds, inj.DataLoss)
	fmt.Printf("monitoring: %d check executions, %d alerts, worst level now: %v\n",
		sched.Runs, len(sched.Alerts), sched.WorstLevel())
	for _, a := range sched.Alerts {
		fmt.Printf("  alert at %v: %s %v->%v (%s)\n", a.At, a.Check, a.From, a.To, a.Message)
	}
	fmt.Printf("incidents (coalesced): %d\n", len(coal.Incidents))
	for _, inc := range coal.Incidents {
		fmt.Printf("  [%v - %v] root=%v components=%v events=%d\n",
			inc.Start, inc.End, inc.RootClass, inc.Components, len(inc.Events))
	}
	fmt.Printf("purge: %d sweeps, %d files deleted, %.1f GiB freed\n",
		len(purger.Sweeps), purger.Deleted, float64(purger.Freed)/(1<<30))
	fmt.Printf("namespace: %d files resident, %.2f%% full\n", fs.NumFiles, fs.Fill()*100)
	bps := store.Series("ctrl0.write_bps")
	var peak float64
	for _, p := range bps.Points {
		if p.Value > peak {
			peak = p.Value
		}
	}
	fmt.Printf("controller poller: %d samples, peak write rate %.1f MB/s\n",
		poller.Samples, peak/1e6)

	// Act two: a bad day. The chaos campaign engine drives a full day of
	// correlated faults — disk failures during rebuilds, OSS crashes with
	// imperative-recovery failover, router-death bursts absorbed by ARN,
	// cable degradation, an MDS outage, an enclosure loss — against a
	// fresh small center and reports its availability. A sampled
	// tracer rides along (1-in-8 probe requests), so afterwards the
	// critical-path extractor can say which layer the faults actually
	// pushed the bound into.
	fmt.Println()
	fmt.Println("=== chaos campaign: one simulated day of correlated faults ===")
	ccfg := chaos.QuickConfig(2026)
	tr := spantrace.New(rng.New(2026^0x5a9), 8)
	ccfg.Tracer = tr
	rep := chaos.Run(ccfg)
	fmt.Print(rep)
	fmt.Println("timeline (first faults):")
	for i, line := range rep.Timeline {
		if i == 8 {
			break
		}
		fmt.Printf("  %s\n", line)
	}
	crit := spantrace.CriticalPaths(tr.Spans())
	fmt.Printf("span tracing: %d requests sampled during the campaign; top critical-path layers:\n",
		crit.Requests)
	for _, l := range crit.Top(3) {
		fmt.Printf("  %-8s bounded %d requests (mean share %.0f%%)\n",
			l, crit.Bounded[l], crit.Share[l]*100)
	}
}

func fsGroups(fs *lustre.FS) []*raid.Group {
	out := make([]*raid.Group, 0, len(fs.OSTs))
	for _, o := range fs.OSTs {
		out = append(out, o.Group())
	}
	return out
}
