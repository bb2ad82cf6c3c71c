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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"spiderfs/internal/benchsuite"
	"spiderfs/internal/chaos"
	"spiderfs/internal/disk"
	"spiderfs/internal/experiment"
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
		func(seed uint64) (artifact, error) {
			return sweep.RunSuite(seed, experiment.SelectSweeps("e3", "e13", "e18"))
		}},
	{"integrity", "BENCH_integrity.json",
		"E19 data-integrity sweep (scrub interval vs undetected corrupt reads)",
		func(seed uint64) (artifact, error) { return experiment.RunIntegritySuite(seed) }},
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	flags.SetOutput(stderr)
	cellSec := flags.Float64("cell", 1.0, "seconds per sweep cell (simulated, at most 3600)")
	seed := flags.Uint64("seed", 42, "random seed")
	out := flags.String("out", "", "with a suite flag, write the suite JSON to this file")
	chosen := make([]*bool, len(suites))
	for i, s := range suites {
		chosen[i] = flags.Bool(s.flag, false, "run the suite behind "+s.file+": "+s.about)
	}
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var picked []suite
	for i, on := range chosen {
		if *on {
			picked = append(picked, suites[i])
		}
	}
	if len(picked) > 1 {
		fmt.Fprintln(stderr, "benchsuite: choose at most one suite flag")
		flags.Usage()
		return 2
	}
	cell := sim.FromSeconds(*cellSec)
	if cell <= 0 || cell > maxCell {
		fmt.Fprintf(stderr, "benchsuite: -cell must be in (0, %g] seconds\n", maxCell.Seconds())
		return 2
	}
	if len(picked) == 1 {
		if err := runSuite(picked[0], *seed, *out, stdout); err != nil {
			fmt.Fprintln(stderr, "benchsuite:", err)
			return 1
		}
		return 0
	}

	sweep := benchsuite.DefaultSweep()
	sweep.CellDuration = cell

	eng := sim.NewEngine()
	src := rng.New(*seed)
	g := raid.BuildGroups(eng, 1, disk.NLSAS2TB(), src.Split("grp"))[0]
	fmt.Fprintln(stdout, "== block level (fair-lio over one RAID-6 8+2 LUN) ==")
	block := benchsuite.RunBlockLevel(eng, g, sweep, src.Split("blk"))
	fmt.Fprint(stdout, benchsuite.Render(block))

	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(*seed+1))
	fmt.Fprintln(stdout, "\n== file system level (obdfilter-style over the OST stack) ==")
	fsCells := benchsuite.RunFSLevel(fs, sweep, src.Split("fs"))
	fmt.Fprint(stdout, benchsuite.Render(fsCells))

	fmt.Fprintln(stdout, "\n== software overhead (1 - fs/block) ==")
	fmt.Fprintf(stdout, "%-24s %12s %12s %10s\n", "cell", "block MB/s", "fs MB/s", "overhead")
	for _, o := range benchsuite.CompareLevels(block, fsCells) {
		fmt.Fprintf(stdout, "%-24s %12.1f %12.1f %9.1f%%\n", o.Cell, o.BlockMBps, o.FSMBps, o.Frac*100)
	}
	return 0
}

// runSuite is the one generation path: run, render, check the
// producer's invariants, write. An artifact that fails its own Check is
// never written.
func runSuite(s suite, seed uint64, out string, stdout io.Writer) error {
	fmt.Fprintf(stdout, "== %s ==\n", s.about)
	a, err := s.run(seed)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, a.Render())
	if err := a.Check(); err != nil {
		return fmt.Errorf("%s failed its own invariants; not written: %w", s.file, err)
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", out)
	return nil
}
