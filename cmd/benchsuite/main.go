// Command benchsuite runs the acquisition benchmark suite (§III-B):
// the full parameter-space sweep at block level and file-system level,
// and the derived software-overhead table.
//
// One suite flag instead runs a BENCH_*.json suite from the table in
// internal/regress (which also documents each suite's gates), prints
// it, and with -out writes its artifact:
//
//	-sweep      BENCH_sweep.json      E3/E13/E18 seed sweeps, serial vs -workers-wide parallel double-run
//	-integrity  BENCH_integrity.json  E19 scrub interval vs undetected corrupt reads
//	-serve      BENCH_serve.json      session service: cold vs warm-pool vs cache-hit
//	-ledger     BENCH_ledger.json     operations ledger: campaign roots, tamper scorecard, batch sweep
//
// A suite whose fresh run fails its own invariants exits 1 and writes
// nothing. The checked-in artifacts are produced by, e.g.,
// `go run ./cmd/benchsuite -sweep -out BENCH_sweep.json`.
//
// With -check it is the bench-regression gate: each committed
// BENCH_*.json in -bench-dir is compared against its freshly generated
// counterpart in -fresh, and any gate finding exits 1. A suite whose
// fresh artifact is missing exits 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spiderfs/internal/benchsuite"
	"spiderfs/internal/disk"
	"spiderfs/internal/lustre"
	"spiderfs/internal/raid"
	"spiderfs/internal/regress"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

func main() {
	cellSec := flag.Float64("cell", 1.0, "seconds per sweep cell (simulated)")
	seed := flag.Uint64("seed", 42, "random seed")
	workers := flag.Int("workers", 0, "with -sweep/-integrity, parallel worker count (0 = GOMAXPROCS)")
	check := flag.Bool("check", false, "regression gate: compare committed BENCH_*.json against -fresh copies")
	benchDir := flag.String("bench-dir", ".", "with -check, directory holding the committed BENCH_*.json files")
	freshDir := flag.String("fresh", "", "with -check, directory holding freshly generated BENCH_*.json files")
	out := flag.String("out", "", "with a suite flag, write the suite JSON to this file")
	chosen := make([]*bool, len(regress.Suites))
	for i, s := range regress.Suites {
		chosen[i] = flag.Bool(s.Flag, false, "run the suite behind "+s.File+": "+s.About)
	}
	flag.Parse()

	var suites []regress.Suite
	for i, on := range chosen {
		if *on {
			suites = append(suites, regress.Suites[i])
		}
	}
	if *check && len(suites) > 0 || len(suites) > 1 {
		fmt.Fprintln(os.Stderr, "benchsuite: choose at most one of -check and the suite flags")
		flag.Usage()
		os.Exit(2)
	}
	if *check {
		runCheck(*benchDir, *freshDir)
		return
	}
	if len(suites) == 1 {
		runSuite(suites[0], regress.Env{Seed: *seed, Workers: *workers,
			Clock: func() int64 { return time.Now().UnixNano() }}, *out)
		return
	}

	sweep := benchsuite.DefaultSweep()
	sweep.CellDuration = sim.FromSeconds(*cellSec)

	eng := sim.NewEngine()
	src := rng.New(*seed)
	g := raid.BuildGroups(eng, 1, raid.Spider2Group(), disk.NLSAS2TB(),
		disk.DefaultPopulation(), src.Split("grp"))[0]
	fmt.Println("== block level (fair-lio over one RAID-6 8+2 LUN) ==")
	block := benchsuite.RunBlockLevel(eng, g, sweep, src.Split("blk"))
	fmt.Print(benchsuite.Render(block))

	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(*seed+1))
	fmt.Println("\n== file system level (obdfilter-style over the OST stack) ==")
	fsCells := benchsuite.RunFSLevel(fs, sweep, src.Split("fs"))
	fmt.Print(benchsuite.Render(fsCells))

	fmt.Println("\n== software overhead (1 - fs/block) ==")
	fmt.Printf("%-24s %12s %12s %10s\n", "cell", "block MB/s", "fs MB/s", "overhead")
	for _, o := range benchsuite.CompareLevels(block, fsCells) {
		fmt.Printf("%-24s %12.1f %12.1f %9.1f%%\n", o.Cell, o.BlockMBps, o.FSMBps, o.Frac*100)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchsuite:", err)
	os.Exit(1)
}

// runSuite is the one generation path: run, render, check the fresh-only
// invariants, write. An artifact that fails its own invariants is never
// written, so generation gives the same verdict -check would, earlier.
func runSuite(s regress.Suite, env regress.Env, out string) {
	fmt.Printf("== %s ==\n", s.About)
	g, err := s.Generate(env)
	if err != nil {
		fatal(err)
	}
	fmt.Print(g.Text)
	if len(g.Findings) > 0 {
		for _, f := range g.Findings {
			fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
		}
		fatal(fmt.Errorf("%s failed its own invariants; not written", s.File))
	}
	if out == "" {
		return
	}
	if err := os.WriteFile(out, g.JSON, 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", out)
}

// runCheck is the regression gate. Every suite's artifact in freshDir
// is compared against the committed copy in benchDir; any finding exits
// 1. A suite with no fresh artifact or no committed baseline, or a
// missing freshDir, is a hard error — the gate must never pass
// vacuously by mistake.
func runCheck(benchDir, freshDir string) {
	if freshDir == "" {
		fmt.Fprintln(os.Stderr, "benchsuite: -check requires -fresh <dir>")
		os.Exit(2)
	}
	failed := false
	for _, s := range regress.Suites {
		name := s.File
		fresh, err := os.ReadFile(filepath.Join(freshDir, name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite: no fresh artifact for -"+s.Flag+":", err)
			os.Exit(2)
		}
		committed, err := os.ReadFile(filepath.Join(benchDir, name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite: fresh artifact has no committed baseline:", err)
			os.Exit(2)
		}
		findings, err := regress.Compare(name, committed, fresh)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(2)
		}
		if len(findings) == 0 {
			fmt.Printf("ok   %s\n", name)
			continue
		}
		failed = true
		for _, f := range findings {
			fmt.Printf("FAIL %s\n", f)
		}
	}
	if failed {
		fmt.Println("bench regression gate: FAIL")
		os.Exit(1)
	}
	fmt.Printf("bench regression gate: ok (%d artifacts)\n", len(regress.Suites))
}
