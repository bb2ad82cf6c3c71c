package disk

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/stats"
)

// measure drives n ops of the given pattern through a fresh disk and
// returns throughput in MB/s (decimal).
func measure(t *testing.T, seqential bool, opSize int64, n int) float64 {
	t.Helper()
	eng := sim.NewEngine()
	src := rng.New(1)
	d := New(eng, 0, NLSAS2TB(), Nominal(), src.Split("d"))
	var lba int64
	issue := func(i int, done func()) {
		op := Op{Write: false, Size: opSize}
		if seqential {
			op.LBA = lba
			lba += opSize
		} else {
			op.LBA = src.Int63n(d.Config().Capacity - opSize)
		}
		d.Submit(op, done)
	}
	remaining := n
	var kick func()
	kick = func() {
		remaining--
		if remaining > 0 {
			issue(n-remaining, kick)
		}
	}
	issue(0, kick)
	eng.Run()
	sec := eng.Now().Seconds()
	return float64(opSize) * float64(n) / 1e6 / sec
}

func TestSequentialThroughputNearPeak(t *testing.T) {
	mbps := measure(t, true, 1<<20, 500)
	// Outer zone, 1 MiB transfers: expect within ~15% of 140 MB/s
	// (command overhead costs a few percent).
	if mbps < 120 || mbps > 145 {
		t.Fatalf("sequential = %.1f MB/s, want ~130-140", mbps)
	}
}

func TestRandomOverSequentialRatio(t *testing.T) {
	seq := measure(t, true, 1<<20, 500)
	rnd := measure(t, false, 1<<20, 500)
	ratio := rnd / seq
	// The paper: a single NL-SAS drive achieves 20-25% of peak under
	// random 1 MB I/O. Accept 18-30% for simulation noise.
	if ratio < 0.18 || ratio > 0.30 {
		t.Fatalf("random/sequential = %.3f (%.1f / %.1f MB/s), want ~0.20-0.25",
			ratio, rnd, seq)
	}
}

func TestSmallRandomIsIOPSBound(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(2)
	d := New(eng, 0, NLSAS2TB(), Nominal(), src.Split("d"))
	n := 1000
	remaining := n
	var issue func()
	issue = func() {
		remaining--
		if remaining >= 0 {
			d.Submit(Op{LBA: src.Int63n(d.Config().Capacity - 4096), Size: 4096}, issue)
		}
	}
	issue()
	eng.Run()
	iops := float64(n) / eng.Now().Seconds()
	// 7.2k NL-SAS random 4K: order 50-90 IOPS.
	if iops < 40 || iops > 120 {
		t.Fatalf("random 4K IOPS = %.1f, want ~50-90", iops)
	}
}

func TestSlowDiskIsSlower(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(3)
	fast := New(eng, 0, NLSAS2TB(), Nominal(), src.Split("f"))
	slow := New(eng, 1, NLSAS2TB(), Health{SpeedFactor: 0.8, TailProb: 0.0005, TailScale: 30 * sim.Millisecond}, src.Split("s"))
	var ft, st sim.Time
	run := func(d *Disk, out *sim.Time) {
		var lba int64
		n := 200
		var next func()
		next = func() {
			n--
			if n >= 0 {
				d.Submit(Op{LBA: lba, Size: 1 << 20}, next)
				lba += 1 << 20
			} else {
				*out = eng.Now()
			}
		}
		next()
	}
	run(fast, &ft)
	eng.Run()
	base := eng.Now()
	_ = base
	eng2 := sim.NewEngine()
	slow2 := New(eng2, 1, NLSAS2TB(), slow.Health(), rng.New(3).Split("s"))
	run(slow2, &st)
	eng2.Run()
	st = eng2.Now()
	if float64(st)/float64(ft) < 1.15 {
		t.Fatalf("slow disk only %.2fx slower", float64(st)/float64(ft))
	}
}

// TestWeakDiskAccumulatesTailLatency runs a weak drive and a nominal
// twin (the same product, speed and stream) through the same commands:
// the weak drive's tail excursions must show in its mean latency, the
// figure the QA tooling screens drives by.
func TestWeakDiskAccumulatesTailLatency(t *testing.T) {
	weakHealth := Health{SpeedFactor: 1.0, TailProb: 0.2, TailScale: 60 * sim.Millisecond}
	run := func(h Health) *Disk {
		eng := sim.NewEngine()
		d := New(eng, 0, NLSAS2TB(), h, rng.New(4).Split("w"))
		n := 500
		var next func()
		next = func() {
			n--
			if n >= 0 {
				d.Submit(Op{LBA: 0, Size: 1 << 20}, next)
			}
		}
		next()
		eng.Run()
		return d
	}
	weak, twin := run(weakHealth), run(Nominal())
	if weak.SlowCmds < 50 {
		t.Fatalf("weak disk recorded only %d slow commands of ~100 expected", weak.SlowCmds)
	}
	// Each command adds TailProb × TailScale (12 ms) on average; ask
	// for half of it.
	excess := weak.MeanLatency() - twin.MeanLatency()
	if want := weakHealth.TailProb * weakHealth.TailScale.Millis() / 2; excess < want {
		t.Fatalf("weak disk mean %.2f ms, nominal twin %.2f ms: excess %.2f ms, want at least %.2f",
			weak.MeanLatency(), twin.MeanLatency(), excess, want)
	}
}

func TestInvalidOpPanics(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, 0, NLSAS2TB(), Nominal(), rng.New(5))
	for _, op := range []Op{
		{LBA: -1, Size: 4096},
		{LBA: 0, Size: 0},
		{LBA: d.Config().Capacity - 100, Size: 4096},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("op %+v should panic", op)
				}
			}()
			d.Submit(op, nil)
		}()
	}
}

func TestZonedTransferInnerSlower(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(6)
	d := New(eng, 0, NLSAS2TB(), Health{SpeedFactor: 1, TailProb: 0, TailScale: 0}, src)
	cfg := d.Config()
	outer := d.ServiceTime(Op{LBA: 0, Size: 1 << 20})
	d.lastEnd = cfg.Capacity - (1 << 20) // force sequential (no seek) at inner edge
	inner := d.ServiceTime(Op{LBA: cfg.Capacity - (1 << 20), Size: 1 << 20})
	if inner <= outer {
		t.Fatalf("inner zone (%v) should be slower than outer (%v)", inner, outer)
	}
}

func TestPopulationSpread(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(7)
	disks := NewPopulation(eng, 5000, NLSAS2TB(), src)
	if len(disks) != 5000 {
		t.Fatalf("population size %d", len(disks))
	}
	slow, weak := 0, 0
	for _, d := range disks {
		h := d.Health()
		if h.SpeedFactor < 0.95 {
			slow++
		}
		if h.TailProb > 0.01 {
			weak++
		}
	}
	slowFrac := float64(slow) / 5000
	weakFrac := float64(weak) / 5000
	if slowFrac < 0.05 || slowFrac > 0.11 {
		t.Fatalf("slow fraction = %.3f, want ~0.075", slowFrac)
	}
	if weakFrac < 0.01 || weakFrac > 0.05 {
		t.Fatalf("weak fraction = %.3f, want ~0.025", weakFrac)
	}
}

func TestPopulationDeterminism(t *testing.T) {
	mk := func() []float64 {
		eng := sim.NewEngine()
		disks := NewPopulation(eng, 100, NLSAS2TB(), rng.New(42))
		out := make([]float64, len(disks))
		for i, d := range disks {
			out[i] = d.Health().SpeedFactor
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("population not deterministic at disk %d", i)
		}
	}
}

// referencePopulation is NewPopulation as it was before the slab: one
// New per drive, each stream split from a formatted label.
func referencePopulation(eng *sim.Engine, n int, cfg Config, src *rng.Source) []*Disk {
	disks := make([]*Disk, n)
	for i := range disks {
		h := Nominal()
		h.SpeedFactor = src.TruncNormal(1.0, speedSigma, 0.9, 1.08)
		switch {
		case src.Bool(slowFrac):
			h.SpeedFactor = src.TruncNormal(slowFactor, slowSigma, 0.6, 0.95)
		case src.Bool(weakFrac / (1 - slowFrac)):
			h.TailProb = weakTailPr
			h.TailScale = weakTailDur
		}
		disks[i] = New(eng, i, cfg, h, src.Split(fmt.Sprintf("disk-%d", i)))
	}
	return disks
}

// TestPopulationStreamsGolden checks that every slab-built drive has the
// personality and stream the one-drive-at-a-time build gave it, and
// that both builds leave the parent stream at the same place.
func TestPopulationStreamsGolden(t *testing.T) {
	eng := sim.NewEngine()
	src, ref := rng.New(42), rng.New(42)
	got := NewPopulation(eng, 1200, NLSAS2TB(), src)
	want := referencePopulation(eng, 1200, NLSAS2TB(), ref)
	for i := range want {
		g, w := got[i], want[i]
		if g.health != w.health || g.src != w.src {
			t.Fatalf("disk %d: (%+v, %v), want (%+v, %v)", i, g.health, g.src, w.health, w.src)
		}
	}
	if g, w := src.Uint64(), ref.Uint64(); g != w {
		t.Fatalf("parent's next draw = %#x, want %#x", g, w)
	}
}

// TestPopulationAllocationsFlat pins the slab: a population of 1,000
// drives costs as many allocations as one of 10. The collection up front
// starts the runtime's mark workers, whose first start would otherwise
// count against whichever measurement triggers it.
func TestPopulationAllocationsFlat(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(3)
	runtime.GC()
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() { NewPopulation(eng, n, NLSAS2TB(), src) })
	}
	if small, large := allocs(10), allocs(1000); large != small {
		t.Fatalf("NewPopulation allocates %v times at n = 1,000, %v at n = 10; want equal", large, small)
	}
}

// TestSubmitAllocationCeiling pins the untraced command path: with 64
// commands standing in the queue, a submit plus a completion allocates
// nothing. done rides in the server's event as data; no per-command
// closure is built unless the command is sampled for tracing.
func TestSubmitAllocationCeiling(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, 0, NLSAS2TB(), Nominal(), rng.New(6).Split("d"))
	completed := 0
	done := func() { completed++ }
	var lba int64
	submit := func() {
		d.Submit(Op{LBA: lba, Size: 128 << 10}, done)
		lba += 128 << 10
	}
	for i := 0; i <= 64; i++ {
		submit()
	}
	perCmd := testing.AllocsPerRun(1000, func() {
		submit()
		eng.Step()
	})
	if d.srv.QueueLen() != 64 {
		t.Fatalf("queue depth %d, want 64", d.srv.QueueLen())
	}
	if completed != 1001 {
		t.Fatalf("%d completions, want 1001", completed)
	}
	if perCmd > 0 {
		t.Errorf("untraced submit+complete at depth 64 allocates %.2f, want 0", perCmd)
	}
}

// TestMeanLatencyMatchesSummary is the drive-latency oracle: a weak
// drive serves a mixed stream of reads and writes, random and
// sequential, arriving fast enough to queue, with a ResetStats midway.
// Each command's service time is rebuilt from completion times alone —
// one actuator serving FIFO starts command k at the later of its submit
// and command k−1's completion — and the drive's mean must equal a
// stats.Summary fed the commands since the reset, bit for bit.
func TestMeanLatencyMatchesSummary(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{Capacity: 2 << 30}
	d := New(eng, 0, cfg, Health{SpeedFactor: 0.9, TailProb: 0.1, TailScale: 40 * sim.Millisecond}, rng.New(8).Split("d"))
	load := rng.New(9)
	const n = 2000
	submit, complete := make([]sim.Time, n), make([]sim.Time, n)
	issued, resetAfter := 0, -1
	var at sim.Time
	var next int64
	for i := range n {
		at += sim.Time(load.Exp(1) * float64(12*sim.Millisecond))
		op := Op{Write: load.Bool(0.4), Size: (1 + load.Int63n(8)) * (64 << 10)}
		if !load.Bool(0.3) || next+op.Size > cfg.Capacity {
			op.LBA = load.Int63n(cfg.Capacity-op.Size) &^ (SectorSize - 1)
		} else {
			op.LBA = next
		}
		next = op.LBA + op.Size
		eng.At(at, func() {
			submit[i] = eng.Now()
			issued++
			d.Submit(op, func() { complete[i] = eng.Now() })
		})
	}
	eng.At(at/2, func() {
		d.ResetStats()
		resetAfter = issued
	})
	eng.Run()

	var want stats.Summary
	var prev sim.Time
	queued := 0
	for k := range n {
		start := max(submit[k], prev)
		if start > submit[k] {
			queued++
		}
		if k >= resetAfter {
			want.Add((complete[k] - start).Millis())
		}
		prev = complete[k]
	}
	if resetAfter <= 0 || resetAfter >= n || queued == 0 || queued == n || d.SlowCmds == 0 {
		t.Fatalf("weak mix: reset after %d of %d, %d queued, %d slow; want a reset midway, both queued and idle starts, and excursions",
			resetAfter, n, queued, d.SlowCmds)
	}
	if d.Ops != want.N {
		t.Fatalf("Ops = %d since the reset, want %d", d.Ops, want.N)
	}
	if got := d.MeanLatency(); math.Float64bits(got) != math.Float64bits(want.Mean) {
		t.Fatalf("MeanLatency = %v ms, a Summary of the rebuilt service times %v ms", got, want.Mean)
	}
}
