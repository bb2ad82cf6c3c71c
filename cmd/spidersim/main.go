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
//
// Every subcommand takes -cpuprofile FILE, which writes a runtime/pprof
// CPU profile of the run (go tool pprof -top FILE reads it).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"spiderfs/internal/center"
	"spiderfs/internal/chaos"
	"spiderfs/internal/experiment"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd := args[0]
	if cmd == "ledger" {
		// The ledger subcommand takes a verb (verify|replay|append)
		// before its flags; it parses its own argument list.
		return runLedger(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 42, "random seed")
	days := fs.Int("days", 0, "chaos: override the campaign length in simulated days")
	full := fs.Bool("full", false, "chaos: 7-day full-scale campaign instead of the 1-day small center")
	scenario := fs.String("scenario", "fig3", "spans: scenario to trace (fig3|chaos)")
	every := fs.Int("every", 1, "spans: sample 1-in-N root requests (N >= 1)")
	out := fs.String("out", "", "spans: also export the raw spans as JSON to this file")
	exp := fs.String("exp", "all", "sweep: which sweep to run ("+experiment.SweepChoices()+")")
	replicas := fs.Int("replicas", 0, fmt.Sprintf("sweep: override the replica count per sweep (0 keeps each sweep's; at most %d)", sweep.MaxReplicas))
	workers := fs.Int("workers", 0, "sweep: parallel worker count (0 = GOMAXPROCS)")
	spec := fs.String("spec", "", "session: the scenario spec as JSON, e.g. '{\"kind\":\"workload\",\"seed\":7}'")
	ledgerOut := fs.String("ledger", "", "chaos, session: export the run's operations ledger as JSON to this file (a session writes the bytes spidersimd's /ledger serves)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stop, err := startProfile(*cpuprofile, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "spidersim: -cpuprofile:", err)
		return 1
	}
	defer stop()

	if s, ok := experiment.Lookup(cmd); ok {
		r := s.Run(*seed)
		fmt.Fprintf(stdout, "--- %s ---\n%s", r.Title, r.Body)
		return 0
	}
	switch cmd {
	case "chaos":
		if *days < 0 || *days > chaos.MaxDays {
			fmt.Fprintf(stderr, "spidersim: chaos -days %d outside [0, %d]\n", *days, chaos.MaxDays)
			return 2
		}
		return runChaos(*seed, *days, *full, *ledgerOut, stdout, stderr)
	case "spans":
		if *every < 1 {
			fmt.Fprintf(stderr, "spidersim: spans -every %d is below 1 (it samples 1-in-N root requests)\n", *every)
			return 2
		}
		return runSpans(*seed, *scenario, *every, *out, stdout, stderr)
	case "sweep":
		if *replicas < 0 || *replicas > sweep.MaxReplicas {
			fmt.Fprintf(stderr, "spidersim: sweep -replicas %d outside [0, %d]\n", *replicas, sweep.MaxReplicas)
			return 2
		}
		if *workers < 0 {
			fmt.Fprintf(stderr, "spidersim: sweep -workers %d is negative (0 means GOMAXPROCS)\n", *workers)
			return 2
		}
		return runSweep(*seed, *exp, *replicas, *workers, stdout, stderr)
	case "scrub":
		runScrub(*seed, stdout)
		return 0
	case "session":
		return runSession(*spec, *ledgerOut, stdout, stderr)
	case "arch":
		c := center.New(center.Config{Scale: 1, Namespaces: 2, Seed: *seed})
		fmt.Fprint(stdout, c.RenderArchitecture())
		return 0
	default:
		usage(stderr)
		return 2
	}
}

// commands are the subcommands spidersim implements itself. main looks
// a study up first, so no study may take one of these names.
var commands = []string{"arch", "chaos", "spans", "sweep", "scrub", "session", "ledger"}

func usage(stderr io.Writer) {
	var cmds []string
	for _, s := range experiment.Studies {
		cmds = append(cmds, s.Name)
	}
	cmds = append(cmds, commands...)
	fmt.Fprintf(stderr, "usage: spidersim <%s> [-seed N] [-days N] [-full] [-scenario fig3|chaos] [-every N] [-out FILE] [-exp %s] [-replicas N] [-workers N] [-spec JSON] [-ledger FILE] [-cpuprofile FILE]\n", strings.Join(cmds, "|"), experiment.SweepChoices())
	fmt.Fprintln(stderr, "       spidersim ledger <verify|replay|append> -in FILE [...]")
}

// startProfile starts a CPU profile into path, if one is asked for, and
// returns the call that flushes and closes it; run defers that call, so
// the profile is flushed on every exit path.
func startProfile(path string, stderr io.Writer) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "spidersim: -cpuprofile:", err)
		}
	}, nil
}

// runSession executes one service session spec solo and prints the
// exact report bytes the daemon's /report endpoint would serve — the
// reference side of the spidersimd determinism contract. With
// ledgerOut it also writes the session's operations ledger there, the
// bytes /ledger serves; a sweep session keeps none and exits 1. The
// sweep catalog is the same one the daemon registers, so "sweep"-kind
// specs resolve identically; every model stream comes from the spec's
// seed.
func runSession(specJSON, ledgerOut string, stdout, stderr io.Writer) int {
	if specJSON == "" {
		fmt.Fprintln(stderr, `session: -spec required, e.g. -spec '{"kind":"workload","seed":7}'`)
		return 2
	}
	var spec serve.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(stderr, "session: bad -spec:", err)
		return 2
	}
	if ledgerOut != "" && spec.Kind == "sweep" {
		// Refused before the sweep runs, which would be wasted.
		fmt.Fprintln(stderr, "session: sweep sessions keep no operations ledger")
		return 1
	}
	rep, err := serve.RunSolo(spec, experiment.Sweeps())
	if err != nil {
		fmt.Fprintln(stderr, "session:", err)
		return 1
	}
	data, err := rep.JSON()
	if err != nil {
		fmt.Fprintln(stderr, "session:", err)
		return 1
	}
	if ledgerOut != "" {
		if err := writeLedger(ledgerOut, rep.Ledger); err != nil {
			fmt.Fprintln(stderr, "session:", err)
			return 1
		}
	}
	stdout.Write(data)
	return 0
}

// runSweep fans the catalog's seed sweeps across a worker pool and
// prints each merged report — the same replica bodies and merge path
// whose fingerprints experiment's TestSweepsPinnedDeterministic pins.
func runSweep(seed uint64, exp string, replicas, workers int, stdout, stderr io.Writer) int {
	entries := experiment.SelectSweeps(exp)
	if len(entries) == 0 {
		fmt.Fprintf(stderr, "sweep: unknown experiment %q (want %s)\n", exp, experiment.SweepChoices())
		return 2
	}
	for _, e := range entries {
		if replicas > 0 {
			e.Replicas = replicas
		}
		t0 := time.Now()
		res, err := sweep.Run(e, seed, workers)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		fmt.Fprint(stdout, res.Report())
		fmt.Fprintf(stdout, "  (%d replicas in %v)\n", e.Replicas, time.Since(t0).Round(time.Millisecond))
	}
	return 0
}

// runScrub replays the E19 scenario twice under the same seed — scrub
// off versus the default pass interval — and prints the exposure delta:
// what the background scrubber buys in undetected corrupt reads, latent
// rebuild hits, and lost stripes, and what it costs in read latency.
func runScrub(seed uint64, stdout io.Writer) {
	fmt.Fprintln(stdout, "E19: background scrub vs latent-corruption exposure (same storm + disk failure, same seed)")
	every := experiment.DefaultScrubInterval
	a, b := experiment.RunScenario(seed, 0), experiment.RunScenario(seed, every)
	fmt.Fprintf(stdout, "%-28s %14s %14s\n", "", "scrub off", fmt.Sprintf("every %v", every))
	row := func(name string, x, y any) { fmt.Fprintf(stdout, "%-28s %14v %14v\n", name, x, y) }
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
		fmt.Fprintf(stdout, "scrub read-latency overhead: %.1f%%\n", (b.MeanReadMs/a.MeanReadMs-1)*100)
	}
	fmt.Fprintln(stdout, "(paper Sec. V: latent sector errors surface during rebuilds; periodic scrub closes the double-failure window)")
}

// runSpans traces a scenario end to end with the spantrace plane and
// renders the per-layer bandwidth waterfall, the critical-path
// attribution, the operation census, and a small flame view.
func runSpans(seed uint64, scenario string, every int, out string, stdout, stderr io.Writer) int {
	tr := spantrace.New(rng.New(seed^0x5a9_70ce), every)
	switch scenario {
	case "fig3":
		fmt.Fprintf(stdout, "spans: Fig. 3 point (32 clients, 1 MiB transfers, full fabric), sampling 1-in-%d\n", every)
		c := center.New(center.Config{Small: true, Namespaces: 1, Seed: seed,
			UseFabric: true, RouteMode: netsim.RouteFGR})
		c.AttachTracer(tr)
		res := c.RunIOR(0, workload.IORConfig{
			Clients: 32, TransferSize: 1 << 20, StoneWall: 300 * sim.Millisecond,
			Tracer: tr,
		})
		fmt.Fprintf(stdout, "%v\n\n", res)
	case "chaos":
		fmt.Fprintf(stdout, "spans: 1-day chaos campaign under injected faults, sampling 1-in-%d\n", every)
		cfg := chaos.QuickConfig(seed)
		cfg.Tracer = tr
		rep := chaos.Run(cfg)
		fmt.Fprintf(stdout, "availability %.5f over %v\n\n", rep.Availability, cfg.Duration)
	default:
		fmt.Fprintf(stderr, "spans: unknown scenario %q (want fig3 or chaos)\n", scenario)
		return 2
	}

	spans := tr.Spans()
	fmt.Fprintf(stdout, "sampled %d root requests -> %d spans\n\n", tr.Sampled(), len(spans))
	fmt.Fprint(stdout, spantrace.RenderWaterfall(spantrace.Waterfall(spans)))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, spantrace.RenderCritical(spantrace.CriticalPaths(spans)))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "operation census (fault-path ops marked *):")
	faulty := map[string]bool{"rpc-retry": true, "router-stall": true, "reroute": true,
		"oss-stall": true, "drop": true, "degraded-read": true, "rmw": true, "rebuild-batch": true}
	for _, oc := range spantrace.CountOps(spans) {
		mark := " "
		if faulty[oc.Op] {
			mark = "*"
		}
		fmt.Fprintf(stdout, "  %s %-16s %8d spans %14d bytes\n", mark, oc.Op, oc.N, oc.Bytes)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "flame view (first traced requests):")
	fmt.Fprint(stdout, spantrace.RenderFlame(spans, 3))

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(stderr, "spans: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := trace.WriteSpans(f, spans); err != nil {
			fmt.Fprintf(stderr, "spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %d spans to %s\n", len(spans), out)
	}
	return 0
}

func runChaos(seed uint64, days int, full bool, ledgerOut string, stdout, stderr io.Writer) int {
	cfg := chaos.CampaignConfig(seed, full, days)
	fmt.Fprintln(stdout, "center-wide chaos campaign: correlated faults vs the Sec. IV resilience features")
	feat := chaos.Run(cfg)
	fmt.Fprint(stdout, feat)
	if ledgerOut != "" {
		if err := writeLedger(ledgerOut, feat.Ops); err != nil {
			fmt.Fprintln(stderr, "chaos:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote operations ledger (%d entries, %d anchors) to %s\n",
			feat.LedgerEntries, feat.LedgerAnchors, ledgerOut)
	}
	if len(feat.Timeline) > 0 {
		fmt.Fprintln(stdout, "first faults on the timeline:")
		for i, line := range feat.Timeline {
			if i == 6 {
				break
			}
			fmt.Fprintf(stdout, "  %s\n", line)
		}
	}
	fmt.Fprintln(stdout)
	abl := chaos.Run(cfg.Ablated())
	fmt.Fprint(stdout, abl)
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "resilience delta under the identical fault schedule (seed %d):\n", seed)
	fmt.Fprintf(stdout, "  OST downtime:  %v ablated -> %v with imperative recovery + ARN\n",
		abl.OSTDowntime, feat.OSTDowntime)
	fmt.Fprintf(stdout, "  availability:  %.5f -> %.5f\n", abl.Availability, feat.Availability)
	fmt.Fprintf(stdout, "  router stalls: %d sends (%v stalled) -> %d sends (%v)\n",
		abl.StalledSends, abl.StallTime, feat.StalledSends, feat.StallTime)
	fmt.Fprintf(stdout, "  probe rate:    mean %.1f MB/s -> %.1f MB/s\n",
		abl.MeanProbeMBps, feat.MeanProbeMBps)
	fw, aw := feat.PendingWork, abl.PendingWork
	fmt.Fprintf(stdout, "engine: at most %d events pending at once (%d ablated); pending set: %d near, %d ring and %d far filings, %d bucket loads, %d rebuilds (%d, %d, %d, %d, %d ablated); flow solver: %d entries walked, %d flows re-rated, %d rates changed (%d, %d, %d ablated); raid: %d stripes checked (%d ablated)\n",
		feat.PeakPending, abl.PeakPending,
		fw.Near, fw.Ring, fw.Far, fw.Loads, fw.Rebuilds,
		aw.Near, aw.Ring, aw.Far, aw.Loads, aw.Rebuilds,
		feat.EntriesWalked, feat.FlowsRerated, feat.RatesChanged,
		abl.EntriesWalked, abl.FlowsRerated, abl.RatesChanged,
		feat.StripesChecked, abl.StripesChecked)
	return 0
}
