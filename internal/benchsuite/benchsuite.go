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

// Sweep is the parameter grid. Zero-valued fields get defaults drawn
// from the published suite.
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

// Cell is one grid point's result.
type Cell struct {
	RequestSize int64
	QueueDepth  int
	WriteFrac   float64
	Random      bool
	MBps        float64
	IOPS        float64
	MeanLatMs   float64
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

// RunBlockLevel sweeps the grid against a raw RAID group.
func RunBlockLevel(eng *sim.Engine, g *raid.Group, sweep Sweep, src *rng.Source) []Cell {
	var cells []Cell
	for _, rs := range sweep.RequestSizes {
		for _, qd := range sweep.QueueDepths {
			for _, wf := range sweep.WriteFracs {
				for _, rnd := range sweep.Random {
					res := workload.RunFairLIOGroup(eng, g, workload.FairLIOConfig{
						RequestSize: rs, QueueDepth: qd, WriteFrac: wf, Random: rnd,
						RandomSpan: blockRandomSpan, Duration: sweep.CellDuration,
					}, src.Split(fmt.Sprintf("blk-%d-%d-%f-%v", rs, qd, wf, rnd)))
					cells = append(cells, Cell{
						RequestSize: rs, QueueDepth: qd, WriteFrac: wf, Random: rnd,
						MBps: res.MBps, IOPS: res.IOPS, MeanLatMs: res.LatencyMs.Mean,
					})
				}
			}
		}
	}
	return cells
}

// ostDriver adapts a lustre object to the survey driver.
type ostDriver struct{ obj *lustre.Object }

func (d ostDriver) Write(size int64, done func())             { d.obj.Write(size, done) }
func (d ostDriver) Read(size int64, random bool, done func()) { d.obj.Read(size, random, done) }

// RunFSLevel sweeps the same grid through the OST stack (controller +
// RAID + obdfilter-equivalent overheads) of the given namespace.
func RunFSLevel(fs *lustre.FS, sweep Sweep, src *rng.Source) []Cell {
	eng := fs.Engine()
	var cells []Cell
	cellIdx := 0
	for _, rs := range sweep.RequestSizes {
		for _, qd := range sweep.QueueDepths {
			for _, wf := range sweep.WriteFracs {
				for _, rnd := range sweep.Random {
					var file *lustre.File
					fs.Create(fmt.Sprintf("suite/cell%05d", cellIdx), 1, func(f *lustre.File) { file = f })
					cellIdx++
					eng.Run()
					// Pre-size the OST toward 25% fill so random accesses
					// span a realistic extent (matching the block
					// benchmark's whole-LUN randomness) without pushing
					// the OST into the high-fill fragmentation regime.
					ost := fs.OSTs[file.OSTIndices[0]]
					if target := ost.Capacity() / 4; ost.Used() < target {
						file.Objects[0].Preload(target - ost.Used())
					}
					cells = append(cells, runFSCell(fs, file, rs, qd, wf, rnd, sweep.CellDuration, src))
				}
			}
		}
	}
	return cells
}

func runFSCell(fs *lustre.FS, file *lustre.File, rs int64, qd int, wf float64, rnd bool, dur sim.Time, src *rng.Source) Cell {
	eng := fs.Engine()
	obj := file.Objects[0]
	oss := fs.OSSes[fs.OSSOf(file.OSTIndices[0])]
	cell := Cell{RequestSize: rs, QueueDepth: qd, WriteFrac: wf, Random: rnd}
	var moved int64
	var ops uint64
	var latSum sim.Time
	end := eng.Now() + dur
	outstanding := 0
	lsrc := src.Split(fmt.Sprintf("fs-%d-%d-%f-%v", rs, qd, wf, rnd))
	var issue func()
	issue = func() {
		for outstanding < qd && eng.Now() < end {
			outstanding++
			t0 := eng.Now()
			done := func() {
				outstanding--
				moved += rs
				ops++
				latSum += eng.Now() - t0
				issue()
			}
			// FS-level requests pass through the OSS software path, then
			// synchronously through controller and RAID (survey
			// semantics: the ack means data reached disk).
			if lsrc.Bool(wf) {
				oss.Service(rs, func() { obj.WriteSync(rs, rnd, done) })
			} else {
				oss.Service(rs, func() { obj.Read(rs, rnd, done) })
			}
		}
	}
	start := eng.Now()
	issue()
	eng.Run()
	durAct := eng.Now() - start
	if durAct > 0 {
		cell.MBps = float64(moved) / 1e6 / durAct.Seconds()
		cell.IOPS = float64(ops) / durAct.Seconds()
	}
	if ops > 0 {
		cell.MeanLatMs = (latSum / sim.Time(ops)).Millis()
	}
	return cell
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
		if !ok || b.MBps == 0 {
			continue
		}
		out = append(out, Overhead{
			Cell: f.Key(), BlockMBps: b.MBps, FSMBps: f.MBps,
			Frac: 1 - f.MBps/b.MBps,
		})
	}
	return out
}

// Render prints a fixed-width table of cells.
func Render(cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %10s %10s\n", "cell", "MB/s", "IOPS", "lat(ms)")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-24s %10.1f %10.0f %10.2f\n", c.Key(), c.MBps, c.IOPS, c.MeanLatMs)
	}
	return b.String()
}
