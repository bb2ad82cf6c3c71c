package benchsuite

import (
	"strings"
	"testing"

	"spiderfs/internal/disk"
	"spiderfs/internal/lustre"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/workload"
)

// tinySweep keeps unit-test event counts small.
func tinySweep() Sweep {
	return Sweep{
		RequestSizes: []int64{64 << 10, 1 << 20},
		QueueDepths:  []int{4},
		WriteFracs:   []float64{0, 1.0},
		Random:       []bool{false, true},
		CellDuration: 300 * sim.Millisecond,
	}
}

func TestBlockLevelSweepShape(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(1)
	g := raid.BuildGroups(eng, 1, disk.NLSAS2TB(), src.Split("g"))[0]
	cells := RunBlockLevel(eng, g, tinySweep(), src)
	if len(cells) != 2*1*2*2 {
		t.Fatalf("cells = %d", len(cells))
	}
	get := func(rs int64, wf float64, rnd bool) Cell {
		for _, c := range cells {
			if c.RequestSize == rs && c.WriteFrac == wf && c.Random == rnd {
				return c
			}
		}
		t.Fatalf("cell missing")
		return Cell{}
	}
	// Shape assertions from the paper's characterization:
	// sequential 1M >> random 1M reads.
	seqR := get(1<<20, 0, false)
	rndR := get(1<<20, 0, true)
	if seqR.MBps() <= rndR.MBps() {
		t.Fatalf("sequential read (%.0f) should beat random (%.0f)", seqR.MBps(), rndR.MBps())
	}
	ratio := rndR.MBps() / seqR.MBps()
	if ratio < 0.1 || ratio > 0.5 {
		t.Fatalf("random/seq read ratio = %.2f", ratio)
	}
	// 1M requests should move more data than 64K at the same depth.
	if get(1<<20, 1, false).MBps() <= get(64<<10, 1, false).MBps() {
		t.Fatal("large sequential writes should beat small ones")
	}
}

func TestFSLevelSweepAndOverhead(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(2)
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(3))
	g := raid.BuildGroups(eng, 1, disk.NLSAS2TB(), src.Split("g"))[0]

	sweep := tinySweep()
	block := RunBlockLevel(eng, g, sweep, src.Split("b"))
	fsCells := RunFSLevel(fs, sweep, src.Split("f"))
	if len(fsCells) != len(block) {
		t.Fatalf("fs cells %d vs block %d", len(fsCells), len(block))
	}
	over := CompareLevels(block, fsCells)
	if len(over) == 0 {
		t.Fatal("no overhead rows matched")
	}
	// The FS stack should cost something on small sequential writes
	// (per-RPC software overheads) — and overhead must be sane (> -1).
	for _, o := range over {
		if o.Frac < -3 || o.Frac > 1 {
			t.Fatalf("overhead %s = %.2f implausible", o.Cell, o.Frac)
		}
	}
}

// rate is a one-second result that moved mbps decimal MB.
func rate(mbps int64) workload.Result {
	return workload.Result{Bytes: mbps * 1e6, Elapsed: sim.Second}
}

func TestCellKeyAndRender(t *testing.T) {
	c := Cell{RequestSize: 1 << 20, QueueDepth: 4, WriteFrac: 0.6, Random: true, Result: rate(123)}
	if c.Key() != "1M-qd4-w60%-rnd" {
		t.Fatalf("key = %q", c.Key())
	}
	out := Render([]Cell{c})
	if !strings.Contains(out, "1M-qd4-w60%-rnd") || !strings.Contains(out, "123") {
		t.Fatalf("render = %q", out)
	}
}

func TestCompareLevelsSkipsUnmatched(t *testing.T) {
	block := []Cell{{RequestSize: 1 << 20, QueueDepth: 4, WriteFrac: 1, Result: rate(100)}}
	fs := []Cell{{RequestSize: 64 << 10, QueueDepth: 4, WriteFrac: 1, Result: rate(50)}}
	if got := CompareLevels(block, fs); len(got) != 0 {
		t.Fatalf("unmatched cells compared: %v", got)
	}
}
