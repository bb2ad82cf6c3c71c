// Command spidersim is the scenario runner for the Spider center
// simulation. Each subcommand replays one of the paper's operational
// studies end to end:
//
//	spidersim mixed       — the §II center-wide mixed workload characterization
//	spidersim checkpoint  — Titan checkpoint sizing (E2)
//	spidersim slowdisk    — the §V-A slow-disk elimination campaign (E3)
//	spidersim incident    — the §IV-E human-error incident replay (E8)
//	spidersim purge       — the 14-day purge policy (E13)
//	spidersim namespaces  — single vs multiple namespaces (E11)
//	spidersim workflow    — data-centric vs machine-exclusive workflow (E6)
//	spidersim chaos       — center-wide chaos campaign, featured vs ablated (E18)
//	spidersim spans       — end-to-end span tracing: waterfall, critical paths, flame
//	spidersim sweep       — deterministic parallel seed sweeps of E3/E13/E18/E19 with merged CIs
//	spidersim scrub       — background scrub vs latent-corruption exposure (E19), off vs default
//	spidersim session     — one-shot run of a service session spec (the cmd/spidersimd reference)
//	spidersim ledger      — verify, replay, or extend an exported operations ledger
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"spiderfs/internal/benchsuite"
	"spiderfs/internal/center"
	"spiderfs/internal/chaos"
	"spiderfs/internal/disk"
	"spiderfs/internal/integrity"
	"spiderfs/internal/lustre"
	"spiderfs/internal/netsim"
	"spiderfs/internal/procure"
	"spiderfs/internal/purge"
	"spiderfs/internal/qa"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/serve"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/stats"
	"spiderfs/internal/sweep"
	"spiderfs/internal/tools"
	"spiderfs/internal/topology"
	"spiderfs/internal/trace"
	"spiderfs/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "ledger" {
		// The ledger subcommand takes a verb (verify|replay|append)
		// before its flags; it parses its own argument list.
		runLedger(os.Args[2:])
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Uint64("seed", 42, "random seed")
	days := fs.Int("days", 0, "chaos: override the campaign length in simulated days")
	full := fs.Bool("full", false, "chaos: 7-day full-scale campaign instead of the 1-day small center")
	scenario := fs.String("scenario", "fig3", "spans: scenario to trace (fig3|chaos)")
	every := fs.Int("every", 1, "spans: sample 1-in-N root requests (0 disables tracing)")
	out := fs.String("out", "", "spans: also export the raw spans as JSON to this file")
	exp := fs.String("exp", "all", "sweep: which sweep to run (e3|e13|e18|e19|all)")
	replicas := fs.Int("replicas", 0, "sweep: override the replica count per sweep")
	workers := fs.Int("workers", 0, "sweep: parallel worker count (0 = GOMAXPROCS)")
	spec := fs.String("spec", "", "session: the scenario spec as JSON, e.g. '{\"kind\":\"workload\",\"seed\":7}'")
	ledgerOut := fs.String("ledger", "", "chaos: export the campaign's operations ledger as JSON to this file")
	_ = fs.Parse(os.Args[2:])

	switch cmd {
	case "mixed":
		runMixed(*seed)
	case "checkpoint":
		runCheckpoint(*seed)
	case "slowdisk":
		runSlowDisk(*seed)
	case "incident":
		runIncident(*seed)
	case "purge":
		runPurge(*seed)
	case "namespaces":
		runNamespaces(*seed)
	case "workflow":
		runWorkflow(*seed)
	case "fig3":
		runFig3(*seed)
	case "fig4":
		runFig4(*seed)
	case "recovery":
		runRecovery(*seed)
	case "chaos":
		runChaos(*seed, *days, *full, *ledgerOut)
	case "spans":
		runSpans(*seed, *scenario, *every, *out)
	case "sweep":
		runSweep(*seed, *exp, *replicas, *workers)
	case "scrub":
		runScrub(*seed)
	case "session":
		runSession(*seed, *spec)
	case "arch":
		c := center.New(center.Config{Scale: 1, Namespaces: 2, Seed: *seed})
		fmt.Print(c.RenderArchitecture())
	case "layers":
		fmt.Println("bottom-up layer profile (Lesson 12): span waterfall of one traced 1 MiB write stream")
		fmt.Print(spantrace.RenderWaterfall(qa.SpanLadder(lustre.TestNamespace(), *seed)))
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: spidersim <arch|layers|mixed|checkpoint|slowdisk|incident|purge|namespaces|workflow|fig3|fig4|recovery|chaos|spans|sweep|scrub|session|ledger> [-seed N] [-days N] [-full] [-scenario fig3|chaos] [-every N] [-out FILE] [-exp e3|e13|e18|e19|all] [-replicas N] [-workers N] [-spec JSON] [-ledger FILE]")
	fmt.Fprintln(os.Stderr, "       spidersim ledger <verify|replay|append> -in FILE [...]")
}

// runSession executes one service session spec solo and prints the
// exact report bytes the daemon's /report endpoint would serve — the
// reference side of the spidersimd determinism contract. The sweep
// catalog is the same one the daemon registers, so "sweep"-kind specs
// resolve identically. seed feeds only the catalog construction; the
// model streams come from the spec's own seed.
func runSession(seed uint64, specJSON string) {
	if specJSON == "" {
		fmt.Fprintln(os.Stderr, `session: -spec required, e.g. -spec '{"kind":"workload","seed":7}'`)
		os.Exit(2)
	}
	var spec serve.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "session: bad -spec:", err)
		os.Exit(2)
	}
	rep, err := serve.RunSolo(spec, benchsuite.ServeCatalog(seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "session:", err)
		os.Exit(1)
	}
	data, err := rep.JSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "session:", err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
}

// runSweep fans the standard seed sweeps across a worker pool and
// prints each merged report — the same replica bodies and merge path
// that `benchsuite -sweep` uses for BENCH_sweep.json, interactively.
func runSweep(seed uint64, exp string, replicas, workers int) {
	short := map[string]string{"e3": "e3-slowdisk", "e13": "e13-purge", "e18": "e18-chaos", "e19": "e19-scrub"}
	want := exp
	if w, ok := short[exp]; ok {
		want = w
	}
	ran := 0
	entries := append(benchsuite.SweepEntries(seed), benchsuite.IntegrityEntries(seed)...)
	for _, e := range entries {
		// Prefix match so "e19-scrub" selects all three scrub-interval sweeps.
		if want != "all" && !strings.HasPrefix(e.Label, want) {
			continue
		}
		if replicas > 0 {
			e.Replicas = replicas
		}
		t0 := time.Now()
		res, err := sweep.Run(sweep.Config{
			Label: e.Label, Seed: e.Seed, Replicas: e.Replicas, Workers: workers,
		}, e.Body)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		fmt.Print(res.Report())
		fmt.Printf("  (%d replicas in %v)\n", e.Replicas, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "sweep: unknown experiment %q (want e3, e13, e18, e19, or all)\n", exp)
		os.Exit(2)
	}
}

// runScrub replays the E19 scenario twice under the same seed — scrub
// off versus the default pass interval — and prints the exposure delta:
// what the background scrubber buys in undetected corrupt reads, latent
// rebuild hits, and lost stripes, and what it costs in read latency.
func runScrub(seed uint64) {
	fmt.Println("E19: background scrub vs latent-corruption exposure (same storm + disk failure, same seed)")
	cfg := integrity.DefaultScenario()
	cfg.Seed = seed
	off := cfg
	off.ScrubEvery = 0
	a, b := integrity.RunScenario(off), integrity.RunScenario(cfg)
	fmt.Printf("%-28s %14s %14s\n", "", "scrub off", fmt.Sprintf("every %v", cfg.ScrubEvery))
	row := func(name string, x, y any) { fmt.Printf("%-28s %14v %14v\n", name, x, y) }
	row("reads served", a.Reads, b.Reads)
	row("undetected corrupt reads", a.UndetectedReads, b.UndetectedReads)
	row("repaired on read", a.RepairedChunks, b.RepairedChunks)
	row("repaired by scrub", a.ScrubRepairs, b.ScrubRepairs)
	row("UREs detected", a.UREsDetected, b.UREsDetected)
	row("checksum mismatches", a.Mismatches, b.Mismatches)
	row("stripes lost (beyond parity)", a.LostStripes, b.LostStripes)
	row("latent hits during rebuild", a.RebuildHits, b.RebuildHits)
	row("rebuild exposure window", a.RebuildWindow, b.RebuildWindow)
	row("scrub passes", a.ScrubPasses, b.ScrubPasses)
	row("mean read latency (ms)",
		fmt.Sprintf("%.2f", a.MeanReadMs), fmt.Sprintf("%.2f", b.MeanReadMs))
	if a.MeanReadMs > 0 {
		fmt.Printf("scrub read-latency overhead: %.1f%%\n", (b.MeanReadMs/a.MeanReadMs-1)*100)
	}
	fmt.Println("(paper Sec. V: latent sector errors surface during rebuilds; periodic scrub closes the double-failure window)")
}

// runSpans traces a scenario end to end with the spantrace plane and
// renders the per-layer bandwidth waterfall, the critical-path
// attribution, the operation census, and a small flame view.
func runSpans(seed uint64, scenario string, every int, out string) {
	tr := spantrace.New(rng.New(seed^0x5a9_70ce), every)
	switch scenario {
	case "fig3":
		fmt.Printf("spans: Fig. 3 point (32 clients, 1 MiB transfers, full fabric), sampling 1-in-%d\n", every)
		c := center.New(center.Config{Small: true, Namespaces: 1, Seed: seed,
			UseFabric: true, RouteMode: netsim.RouteFGR})
		c.AttachTracer(tr)
		res := c.RunIOR(0, workload.IORConfig{
			Clients: 32, TransferSize: 1 << 20, StoneWall: 300 * sim.Millisecond,
			Tracer: tr,
		})
		fmt.Printf("%v\n\n", res)
	case "chaos":
		fmt.Printf("spans: 1-day chaos campaign under injected faults, sampling 1-in-%d\n", every)
		cfg := chaos.QuickConfig(seed)
		cfg.Tracer = tr
		rep := chaos.Run(cfg)
		fmt.Printf("availability %.5f over %v\n\n", rep.Availability, cfg.Duration)
	default:
		fmt.Fprintf(os.Stderr, "spans: unknown scenario %q (want fig3 or chaos)\n", scenario)
		os.Exit(2)
	}

	spans := tr.Spans()
	fmt.Printf("sampled %d root requests -> %d spans\n\n", tr.Sampled(), len(spans))
	fmt.Print(spantrace.RenderWaterfall(spantrace.Waterfall(spans)))
	fmt.Println()
	fmt.Print(spantrace.RenderCritical(spantrace.CriticalPaths(spans)))
	fmt.Println()
	fmt.Println("operation census (fault-path ops marked *):")
	faulty := map[string]bool{"rpc-retry": true, "router-stall": true, "reroute": true,
		"oss-stall": true, "drop": true, "degraded-read": true, "rmw": true, "rebuild-batch": true}
	for _, oc := range spantrace.CountOps(spans) {
		mark := " "
		if faulty[oc.Op] {
			mark = "*"
		}
		fmt.Printf("  %s %-16s %8d spans %14d bytes\n", mark, oc.Op, oc.N, oc.Bytes)
	}
	fmt.Println()
	fmt.Println("flame view (first traced requests):")
	fmt.Print(spantrace.RenderFlame(spans, 3))

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spans: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.WriteSpans(f, spans); err != nil {
			fmt.Fprintf(os.Stderr, "spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d spans to %s\n", len(spans), out)
	}
}

func runChaos(seed uint64, days int, full bool, ledgerOut string) {
	cfg := chaos.QuickConfig(seed)
	if full {
		cfg = chaos.DefaultConfig(seed)
	}
	if days > 0 {
		cfg.Duration = sim.Time(days) * sim.Day
	}
	fmt.Println("center-wide chaos campaign: correlated faults vs the Sec. IV resilience features")
	feat := chaos.Run(cfg)
	fmt.Print(feat)
	if ledgerOut != "" {
		if err := writeLedger(ledgerOut, feat.Ops); err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote operations ledger (%d entries, %d anchors) to %s\n",
			feat.LedgerEntries, feat.LedgerAnchors, ledgerOut)
	}
	if len(feat.Timeline) > 0 {
		fmt.Println("first faults on the timeline:")
		for i, line := range feat.Timeline {
			if i == 6 {
				break
			}
			fmt.Printf("  %s\n", line)
		}
	}
	fmt.Println()
	abl := chaos.Run(cfg.Ablated())
	fmt.Print(abl)
	fmt.Println()
	fmt.Printf("resilience delta under the identical fault schedule (seed %d):\n", seed)
	fmt.Printf("  OST downtime:  %v ablated -> %v with imperative recovery + ARN\n",
		abl.OSTDowntime, feat.OSTDowntime)
	fmt.Printf("  availability:  %.5f -> %.5f\n", abl.Availability, feat.Availability)
	fmt.Printf("  router stalls: %d sends (%v stalled) -> %d sends (%v)\n",
		abl.StalledSends, abl.StallTime, feat.StalledSends, feat.StallTime)
	fmt.Printf("  probe rate:    mean %.1f MB/s -> %.1f MB/s\n",
		abl.MeanProbeMBps, feat.MeanProbeMBps)
}

func runFig3(seed uint64) {
	fmt.Println("Fig. 3 reproduction: IOR write bandwidth vs transfer size (32 clients, stonewall)")
	fmt.Printf("%-12s %12s\n", "xfer bytes", "agg MB/s")
	for i, sz := range []int64{16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		c := center.New(center.Config{Small: true, Namespaces: 1, Seed: seed + uint64(i)})
		res := c.RunIOR(0, workload.IORConfig{
			Clients: 32, TransferSize: sz, StoneWall: 300 * sim.Millisecond,
		})
		fmt.Printf("%-12d %12.1f\n", sz, res.AggregateBps/1e6)
	}
	fmt.Println("(paper: best write performance at 1 MiB transfers)")
}

func runFig4(seed uint64) {
	fmt.Println("Fig. 4 reproduction: IOR write bandwidth vs client count (1 MiB transfers)")
	fmt.Printf("%-10s %12s\n", "clients", "agg MB/s")
	for i, n := range []int{2, 4, 8, 16, 32, 64, 128, 256} {
		c := center.New(center.Config{Small: true, Namespaces: 1, Seed: seed + uint64(i)})
		res := c.RunIOR(0, workload.IORConfig{
			Clients: n, TransferSize: 1 << 20, StoneWall: 300 * sim.Millisecond,
		})
		fmt.Printf("%-10d %12.1f\n", n, res.AggregateBps/1e6)
	}
	fmt.Println("(paper: near-linear to ~6,000 clients at full scale, then steady)")
}

func runRecovery(seed uint64) {
	for _, imperative := range []bool{false, true} {
		eng := sim.NewEngine()
		nsFS := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
		client := lustre.NewClient(0, topology.Coord{}, nsFS, lustre.NullTransport{Eng: eng})
		var file *lustre.File
		nsFS.CreateOn("app/out", []int{0}, func(f *lustre.File) { file = f })
		eng.Run()
		lustre.FailOSS(nsFS, 0, lustre.DefaultRecovery(imperative), nil)
		start := eng.Now()
		var doneAt sim.Time
		client.WriteStream(file, 8<<20, 1<<20, func(int64) { doneAt = eng.Now() })
		eng.Run()
		mode := "without imperative recovery"
		if imperative {
			mode = "with imperative recovery   "
		}
		fmt.Printf("%s: application stalled %v across the OSS failover\n", mode, doneAt-start)
	}
	fmt.Println("(imperative recovery was one of the Lustre features OLCF direct-funded, Sec. IV-D)")
}

func runMixed(seed uint64) {
	eng := sim.NewEngine()
	nsFS := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	cfg := workload.DefaultMixed()
	cfg.Duration = 10 * sim.Second
	cfg.MeanArrival = 4 * sim.Millisecond
	tr := workload.RunMixed(nsFS, cfg, rng.New(seed+1))
	fmt.Printf("mixed workload over %v:\n", cfg.Duration)
	fmt.Printf("  requests: %d (%.0f%% write / %.0f%% read; paper: 60/40)\n",
		tr.Writes+tr.Reads, tr.WriteFraction()*100, (1-tr.WriteFraction())*100)
	small, large := 0, 0
	for _, s := range tr.Sizes {
		if s <= 16<<10 {
			small++
		} else if s >= 1<<20 {
			large++
		}
	}
	n := len(tr.Sizes)
	fmt.Printf("  sizes: %.0f%% <=16KiB, %.0f%% >=1MiB (bimodal, as measured on Spider I)\n",
		100*float64(small)/float64(n), 100*float64(large)/float64(n))
	fit := stats.FitPareto(tr.InterArrivals, stats.Percentile(tr.InterArrivals, 0.5))
	fmt.Printf("  inter-arrival Pareto tail: alpha=%.2f over %d tail gaps (long-tail)\n", fit.Alpha, fit.N)
}

func runCheckpoint(seed uint64) {
	// Sizing math first (the RFP numbers).
	bw := procure.CheckpointBandwidth(600e12, 0.75, 6*sim.Minute)
	fmt.Printf("sizing: 75%% of 600 TB in 6 min -> %.2f TB/s sequential requirement\n", bw/1e12)
	fmt.Printf("        random-I/O target at 24%% drive ratio -> %.0f GB/s\n",
		procure.RandomDerate(1e12, 0.24)/1e9)

	// Then a scaled simulation: 1/6 of a namespace, proportional memory.
	c := center.New(center.Config{Scale: 6, Namespaces: 1, Seed: seed})
	res := c.RunIOR(0, workload.IORConfig{
		Clients:      256,
		TransferSize: 1 << 20,
		BlockSize:    64 << 20,
	})
	fmt.Printf("simulated (1/6 scale, 3 SSUs): %.1f GB/s aggregate; full namespace extrapolation %.0f GB/s\n",
		res.AggregateBps/1e9, res.AggregateBps*6/1e9)
}

func runSlowDisk(seed uint64) {
	eng := sim.NewEngine()
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = 1 << 30
	groups := raid.BuildGroups(eng, 56, raid.Spider2Group(), dcfg, disk.DefaultPopulation(), rng.New(seed))
	cfg := qa.DefaultElimination()
	cfg.BenchBytes = 32 << 20
	rep := qa.RunElimination(eng, groups, cfg, rng.New(seed+1))
	fmt.Println(rep)
	for _, r := range rep.Rounds {
		fmt.Printf("  round %d: mean %.0f MB/s, min %.0f, spread %.1f%%, replaced %d disks\n",
			r.Index, r.MeanMBps, r.MinMBps, r.Spread*100, r.Replaced)
	}
	fmt.Printf("paper: ~1,500 then ~500 of 20,160 drives replaced; envelope 5%% -> 7.5%%\n")
}

func runIncident(seed uint64) {
	for _, layout := range []struct {
		name string
		l    raid.EnclosureLayout
	}{{"spider1 (5 enclosures x 2 members)", raid.Spider1Layout()},
		{"spider2 (10 enclosures x 1 member)", raid.Spider2Layout()}} {
		eng := sim.NewEngine()
		dcfg := disk.NLSAS2TB()
		dcfg.Capacity = 64 << 20
		groups := raid.BuildGroups(eng, 4, raid.Spider2Group(), dcfg, disk.DefaultPopulation(), rng.New(seed))
		for _, g := range groups {
			g.RebuildPause = 30 * sim.Minute
			g.RebuildChunk = 8
		}
		c := raid.NewCouplet(eng, 0, layout.l, groups)
		g := groups[0]
		g.FailDisk(0)
		repl := disk.New(eng, 9999, dcfg, disk.Nominal(), rng.New(seed).Split("repl"))
		g.StartRebuild(0, repl, nil)
		c.ControllerFailover()
		c.Journal.Log(1_000_000)
		eng.RunFor(sim.Hour)
		failedGroups := c.FailEnclosure(1)
		eng.RunFor(17 * sim.Hour)
		lost := c.TakeOffline()
		rec, unrec := c.RecoverFiles(rng.New(seed).Split("rec"), 0.95)
		fmt.Printf("%s:\n  groups failed: %d, journal entries lost: %d\n", layout.name, failedGroups, lost)
		if lost > 0 {
			fmt.Printf("  recovery: %d recovered, %d unrecoverable (%.1f%% success)\n",
				rec, unrec, 100*float64(rec)/float64(rec+unrec))
		}
	}
}

func runPurge(seed uint64) {
	eng := sim.NewEngine()
	nsFS := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	p := purge.New(nsFS, purge.Policy{MaxAge: 14 * sim.Day, Interval: sim.Day, Concurrency: 16})
	p.Start()
	day := 0
	var producer func()
	producer = func() {
		if day >= 30 {
			return
		}
		tools.Populate(nsFS, tools.TreeSpec{
			Dirs: 1, FilesPerDir: 50, FileSize: 16 << 20,
			Root: fmt.Sprintf("day%02d", day),
		})
		day++
		eng.After(sim.Day, producer)
	}
	producer()
	eng.RunUntil(30 * sim.Day)
	p.Stop()
	eng.Run()
	fmt.Printf("30 days of production under the 14-day purge policy:\n")
	fmt.Printf("  sweeps: %d, deleted: %d files, freed: %.1f GiB\n",
		len(p.Sweeps), p.Deleted, float64(p.Freed)/(1<<30))
	fmt.Printf("  files resident at day 30: %d (14-15 days of production)\n", nsFS.NumFiles)
	last := p.Sweeps[len(p.Sweeps)-1]
	fmt.Printf("  fill: %.2f%% -> %.2f%% at last sweep\n", last.FillBefore*100, last.FillAfter*100)
}

func runNamespaces(seed uint64) {
	for _, n := range []int{1, 2} {
		eng := sim.NewEngine()
		var namespaces []*lustre.FS
		for i := 0; i < n; i++ {
			p := lustre.TestNamespace()
			p.Name = fmt.Sprintf("atlas%d", i+1)
			namespaces = append(namespaces, lustre.Build(eng, p, rng.New(seed+uint64(i))))
		}
		res := center.MetadataStorm(namespaces, 5000, 64)
		fmt.Printf("%d namespace(s): %.0f metadata ops/s, mean wait %v, MDS util %.2f, blast radius %.0f%%\n",
			n, res.OpsPerSec, res.MeanWait, res.Utilization,
			100*center.BlastRadius(namespaces, 0))
	}
}

func runWorkflow(seed uint64) {
	eng := sim.NewEngine()
	shared := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	dc := center.DataCentricWorkflow(shared, 512<<20, 4, 4)

	eng2 := sim.NewEngine()
	simFS := lustre.Build(eng2, lustre.TestNamespace(), rng.New(seed+1))
	p := lustre.TestNamespace()
	p.Name = "viz"
	vizFS := lustre.Build(eng2, p, rng.New(seed+2))
	ex := center.ExclusiveWorkflow(simFS, vizFS, 512<<20, 4, 4, 10e9)

	fmt.Printf("workflow (512 MiB simulation output, then analysis):\n")
	fmt.Printf("  data-centric:      write %v + read %v = %v (0 bytes moved)\n",
		dc.WriteTime, dc.ReadTime, dc.Total)
	fmt.Printf("  machine-exclusive: write %v + transfer %v + read %v = %v (%d MiB moved)\n",
		ex.WriteTime, ex.TransferTime, ex.ReadTime, ex.Total, ex.BytesMoved>>20)

	cmp := procure.CompareModels([]procure.Platform{
		{Name: "titan", MemBytes: 710e12, WorkflowShareBytes: 100e12},
		{Name: "analysis", MemBytes: 30e12, WorkflowShareBytes: 20e12},
		{Name: "viz", MemBytes: 20e12, WorkflowShareBytes: 10e12},
		{Name: "dtn", MemBytes: 10e12, WorkflowShareBytes: 5e12},
	}, procure.Spider2SSU(), 10e9)
	fmt.Printf("  acquisition model: %v\n", cmp)
}
