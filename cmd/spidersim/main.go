// Command spidersim is the scenario runner for the Spider center
// simulation. Each subcommand replays one of the paper's studies end to
// end.
//
// Every internal/experiment study is a subcommand named after it, and
// prints the same table as its BenchmarkPaper sub-benchmark, byte for
// byte at the study's seed: `spidersim fig3 -seed 300` is `go test -run
// '^$' -bench 'Paper/fig3$' -benchtime 1x .`. EXPERIMENTS.md maps each
// paper row (Figs. 2-4, E1-E17, HERO, A1-A8) to its study name and seed.
//
// The rest drive the center's operational planes:
//
//	spidersim arch        — the simulated center's architecture
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
	"spiderfs/internal/experiment"
	"spiderfs/internal/integrity"
	"spiderfs/internal/netsim"
	"spiderfs/internal/rng"
	"spiderfs/internal/serve"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/sweep"
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

	if s, ok := experiment.Lookup(cmd); ok {
		r := s.Run(*seed)
		fmt.Printf("--- %s ---\n%s", r.Title, r.Body)
		return
	}
	switch cmd {
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
	default:
		usage()
		os.Exit(2)
	}
}

// commands are the subcommands spidersim implements itself. main looks
// a study up first, so no study may take one of these names.
var commands = []string{"arch", "chaos", "spans", "sweep", "scrub", "session", "ledger"}

func usage() {
	var cmds []string
	for _, s := range experiment.Studies {
		cmds = append(cmds, s.Name)
	}
	cmds = append(cmds, commands...)
	fmt.Fprintf(os.Stderr, "usage: spidersim <%s> [-seed N] [-days N] [-full] [-scenario fig3|chaos] [-every N] [-out FILE] [-exp e3|e13|e18|e19|all] [-replicas N] [-workers N] [-spec JSON] [-ledger FILE]\n", strings.Join(cmds, "|"))
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
