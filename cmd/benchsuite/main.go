// Command benchsuite runs the acquisition benchmark suite (§III-B):
// the full parameter-space sweep at block level and file-system level,
// and the derived software-overhead table.
//
// One suite flag instead runs a BENCH_*.json suite from the table
// below, prints it, and with -out writes its artifact:
//
//	-sweep      BENCH_sweep.json      E3/E13/E18 seed sweeps, serial vs 4-worker parallel double-run
//	-integrity  BENCH_integrity.json  E19 scrub interval vs undetected corrupt reads
//	-serve      BENCH_serve.json      session service: cold vs warm-pool vs cache-hit
//	-ledger     BENCH_ledger.json     operations ledger: campaign roots, tamper scorecard, batch sweep
//
// Every field of every artifact is deterministic, so the committed
// copies are goldens: `./verify.sh benchcheck` regenerates them and
// byte-compares. A suite whose fresh run fails its own Check exits 1
// and writes nothing. The checked-in artifacts are produced by, e.g.,
// `go run ./cmd/benchsuite -sweep -out BENCH_sweep.json`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"spiderfs/internal/benchsuite"
	"spiderfs/internal/chaos"
	"spiderfs/internal/disk"
	"spiderfs/internal/experiment"
	"spiderfs/internal/integrity"
	"spiderfs/internal/lustre"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/serve"
	"spiderfs/internal/sim"
	"spiderfs/internal/sweep"
)

// artifact is a suite's result: a stdout table and the producer's own
// invariants.
type artifact interface {
	Render() string
	Check() error
}

// suite is one row of the BENCH_*.json table.
type suite struct {
	flag  string // benchsuite flag that runs the suite, e.g. "sweep"
	file  string // committed artifact, e.g. BENCH_sweep.json
	about string // one line for the flag help and the run header
	run   func(seed uint64) (artifact, error)
}

// suites is the suite table, in generation order.
var suites = []suite{
	{"sweep", "BENCH_sweep.json",
		"seed sweeps E3/E13/E18 (deterministic parallel replica runner, serial vs parallel double-run)",
		func(seed uint64) (artifact, error) { return sweep.RunSuite(seed, experiment.Sweeps()) }},
	{"integrity", "BENCH_integrity.json",
		"E19 data-integrity sweep (scrub interval vs undetected corrupt reads)",
		func(seed uint64) (artifact, error) { return integrity.RunSuite(seed) }},
	{"serve", "BENCH_serve.json",
		"session service (warm-engine pool + result cache, cold vs warm vs cache-hit)",
		func(uint64) (artifact, error) { return serve.RunBench(), nil }},
	{"ledger", "BENCH_ledger.json",
		"operations ledger (anchored campaign roots, tamper scorecard, batch sweep)",
		func(seed uint64) (artifact, error) { return chaos.RunLedgerSuite(seed) }},
}

// maxCell caps -cell at one simulated hour: the sweep runs 216 cells,
// so that is already nine simulated days of closed-loop I/O, and
// sim.FromSeconds saturates a huge value at sim.MaxTime.
const maxCell = sim.Hour

func main() {
	cellSec := flag.Float64("cell", 1.0, "seconds per sweep cell (simulated, at most 3600)")
	seed := flag.Uint64("seed", 42, "random seed")
	out := flag.String("out", "", "with a suite flag, write the suite JSON to this file")
	chosen := make([]*bool, len(suites))
	for i, s := range suites {
		chosen[i] = flag.Bool(s.flag, false, "run the suite behind "+s.file+": "+s.about)
	}
	flag.Parse()

	var picked []suite
	for i, on := range chosen {
		if *on {
			picked = append(picked, suites[i])
		}
	}
	if len(picked) > 1 {
		fmt.Fprintln(os.Stderr, "benchsuite: choose at most one suite flag")
		flag.Usage()
		os.Exit(2)
	}
	cell := sim.FromSeconds(*cellSec)
	if cell <= 0 || cell > maxCell {
		fmt.Fprintf(os.Stderr, "benchsuite: -cell must be in (0, %g] seconds\n", maxCell.Seconds())
		os.Exit(2)
	}
	if len(picked) == 1 {
		runSuite(picked[0], *seed, *out)
		return
	}

	sweep := benchsuite.DefaultSweep()
	sweep.CellDuration = cell

	eng := sim.NewEngine()
	src := rng.New(*seed)
	g := raid.BuildGroups(eng, 1, disk.NLSAS2TB(), src.Split("grp"))[0]
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

// runSuite is the one generation path: run, render, check the
// producer's invariants, write. An artifact that fails its own Check is
// never written.
func runSuite(s suite, seed uint64, out string) {
	fmt.Printf("== %s ==\n", s.about)
	a, err := s.run(seed)
	if err != nil {
		fatal(err)
	}
	fmt.Print(a.Render())
	if err := a.Check(); err != nil {
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", s.file, err)
		fatal(fmt.Errorf("%s failed its own invariants; not written", s.file))
	}
	if out == "" {
		return
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", out)
}
