// Command benchsuite runs the acquisition benchmark suite (§III-B):
// the full parameter-space sweep at block level (fair-lio over one
// RAID-6 8+2 LUN) and at file-system level (obdfilter-style over the
// OST stack), and the derived software-overhead table.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"spiderfs/internal/benchsuite"
	"spiderfs/internal/disk"
	"spiderfs/internal/lustre"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

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
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cell := sim.FromSeconds(*cellSec)
	if cell <= 0 || cell > maxCell {
		fmt.Fprintf(stderr, "benchsuite: -cell must be in (0, %g] seconds\n", maxCell.Seconds())
		return 2
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
