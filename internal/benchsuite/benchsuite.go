// Package benchsuite implements the acquisition benchmark suite of
// §III-B: a synthetic parameter-space exploration over request size,
// queue depth, read/write ratio, and sequential/random mode, run at both
// the block level (fair-lio over raw RAID LUNs) and the file-system
// level (obdfilter-survey over the OST stack). Comparing the two
// quantifies the file system software overhead, and specific cells mimic
// the real mixed-workload patterns of §II.
package benchsuite

import (
	"fmt"
	"strings"

	"spiderfs/internal/lustre"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/workload"
)

// Sweep is the parameter grid. Every field must be set; DefaultSweep
// is the published suite.
type Sweep struct {
	RequestSizes []int64
	QueueDepths  []int
	WriteFracs   []float64
	Random       []bool
	CellDuration sim.Time
}

// blockRandomSpan bounds block-level random offsets to this fraction of
// the LUN so the comparison matches the FS-level cells, whose data
// occupies ~25% of the platters.
const blockRandomSpan = 0.25

// DefaultSweep returns the grid OLCF shipped to vendors.
func DefaultSweep() Sweep {
	return Sweep{
		RequestSizes: []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20},
		QueueDepths:  []int{1, 4, 16},
		WriteFracs:   []float64{0, 0.6, 1.0}, // read, the §II mix, write
		Random:       []bool{false, true},
		CellDuration: sim.Second,
	}
}

// Cell is one grid point and the closed-loop result measured there.
type Cell struct {
	RequestSize int64
	QueueDepth  int
	WriteFrac   float64
	Random      bool
	workload.Result
}

// Key renders the cell coordinates compactly.
func (c Cell) Key() string {
	mode := "seq"
	if c.Random {
		mode = "rnd"
	}
	return fmt.Sprintf("%s-qd%d-w%.0f%%-%s", fmtSize(c.RequestSize), c.QueueDepth, c.WriteFrac*100, mode)
}

func fmtSize(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dM", n>>20)
	default:
		return fmt.Sprintf("%dK", n>>10)
	}
}

// walk measures every grid point in the published order: request
// size, then queue depth, then write fraction, then access mode. run
// gets the point's index and coordinates and returns its result.
func (s Sweep) walk(run func(i int, c Cell) workload.Result) []Cell {
	var cells []Cell
	for _, rs := range s.RequestSizes {
		for _, qd := range s.QueueDepths {
			for _, wf := range s.WriteFracs {
				for _, rnd := range s.Random {
					c := Cell{RequestSize: rs, QueueDepth: qd, WriteFrac: wf, Random: rnd}
					c.Result = run(len(cells), c)
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}

// label names a cell's random stream.
func (c Cell) label(level string) string {
	return fmt.Sprintf("%s-%d-%d-%f-%v", level, c.RequestSize, c.QueueDepth, c.WriteFrac, c.Random)
}

// RunBlockLevel sweeps the grid against a raw RAID group.
func RunBlockLevel(eng *sim.Engine, g *raid.Group, sweep Sweep, src *rng.Source) []Cell {
	return sweep.walk(func(_ int, c Cell) workload.Result {
		return workload.RunFairLIOGroup(eng, g, workload.FairLIOConfig{
			RequestSize: c.RequestSize, QueueDepth: c.QueueDepth, WriteFrac: c.WriteFrac, Random: c.Random,
			RandomSpan: blockRandomSpan, Duration: sweep.CellDuration,
		}, src.Split(c.label("blk")))
	})
}

// RunFSLevel sweeps the same grid through the OST stack (controller +
// RAID + obdfilter-equivalent overheads) of the given namespace. Each
// cell writes a fresh one-stripe file; a request draws its direction,
// then passes through the OSS software path and synchronously through
// controller and RAID (survey semantics: the ack means data reached
// disk).
func RunFSLevel(fs *lustre.FS, sweep Sweep, src *rng.Source) []Cell {
	eng := fs.Engine()
	return sweep.walk(func(i int, c Cell) workload.Result {
		var file *lustre.File
		fs.Create(fmt.Sprintf("suite/cell%05d", i), 1, func(f *lustre.File) { file = f })
		eng.Run()
		obj := file.Objects[0]
		// Pre-size the OST toward 25% fill so random accesses span a
		// realistic extent (matching the block benchmark's whole-LUN
		// randomness) without pushing the OST into the high-fill
		// fragmentation regime.
		ost := fs.OSTs[file.OSTIndices[0]]
		if target := ost.Capacity() / 4; ost.Used() < target {
			obj.Preload(target - ost.Used())
		}
		oss := fs.OSSes[fs.OSSOf(file.OSTIndices[0])]
		lsrc := src.Split(c.label("fs"))
		return workload.Drive(eng, func(n int64, done func()) {
			if lsrc.Bool(c.WriteFrac) {
				oss.Service(n, func() { obj.WriteSync(n, c.Random, done) })
			} else {
				oss.Service(n, func() { obj.Read(n, c.Random, done) })
			}
		}, workload.Loop{Depth: c.QueueDepth, Size: c.RequestSize, Duration: sweep.CellDuration})
	})
}

// Overhead pairs block- and FS-level cells and reports the software
// overhead per cell: 1 - fsMBps/blockMBps (positive when the stack costs
// throughput).
type Overhead struct {
	Cell      string
	BlockMBps float64
	FSMBps    float64
	Frac      float64
}

// CompareLevels matches cells by coordinates.
func CompareLevels(block, fs []Cell) []Overhead {
	idx := map[string]Cell{}
	for _, c := range block {
		idx[c.Key()] = c
	}
	var out []Overhead
	for _, f := range fs {
		b, ok := idx[f.Key()]
		if !ok || b.MBps() == 0 {
			continue
		}
		out = append(out, Overhead{
			Cell: f.Key(), BlockMBps: b.MBps(), FSMBps: f.MBps(),
			Frac: 1 - f.MBps()/b.MBps(),
		})
	}
	return out
}

// Render prints a fixed-width table of cells.
func Render(cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %10s %10s\n", "cell", "MB/s", "IOPS", "lat(ms)")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-24s %10.1f %10.0f %10.2f\n", c.Key(), c.MBps(), c.IOPS(), c.LatencyMs.Mean)
	}
	return b.String()
}
