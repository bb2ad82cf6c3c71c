package workload

import (
	"testing"

	"spiderfs/internal/disk"
	"spiderfs/internal/lustre"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/stats"
	"spiderfs/internal/topology"
)

func mkTestFS(seed uint64) *lustre.FS {
	eng := sim.NewEngine()
	return lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
}

func TestRunIORBasic(t *testing.T) {
	fs := mkTestFS(1)
	res := RunIOR(fs, IORConfig{
		Clients:      4,
		TransferSize: 1 << 20,
		BlockSize:    16 << 20,
	})
	if res.BytesMoved != 4*16<<20 {
		t.Fatalf("moved %d", res.BytesMoved)
	}
	if res.AggregateBps <= 0 {
		t.Fatal("no aggregate bandwidth")
	}
	if res.MinClient != 16<<20 || res.MaxClient != 16<<20 {
		t.Fatalf("per-client min=%d max=%d", res.MinClient, res.MaxClient)
	}
}

func TestRunIORStonewall(t *testing.T) {
	fs := mkTestFS(2)
	res := RunIOR(fs, IORConfig{
		Clients:      8,
		TransferSize: 1 << 20,
		StoneWall:    sim.Second,
	})
	if res.BytesMoved <= 0 {
		t.Fatal("stonewall moved nothing")
	}
	if res.Duration < sim.Second || res.Duration > 10*sim.Second {
		t.Fatalf("duration %v", res.Duration)
	}
}

func TestRunIORRead(t *testing.T) {
	fs := mkTestFS(3)
	res := RunIOR(fs, IORConfig{
		Clients:      2,
		TransferSize: 1 << 20,
		BlockSize:    8 << 20,
		Read:         true,
	})
	if res.BytesMoved != 2*8<<20 {
		t.Fatalf("read moved %d", res.BytesMoved)
	}
}

func TestIORPeaksAtOneMiB(t *testing.T) {
	// The Fig. 3 shape on a small namespace: 1 MiB transfers must beat
	// tiny transfers clearly.
	sizes := []int64{16 << 10, 1 << 20}
	var res []IORResult
	for i, sz := range sizes {
		fs := mkTestFS(uint64(10 + i))
		res = append(res, RunIOR(fs, IORConfig{
			Clients:      8,
			TransferSize: sz,
			StoneWall:    sim.Second,
		}))
	}
	if res[1].AggregateBps < 3*res[0].AggregateBps {
		t.Fatalf("1 MiB (%.1f MB/s) should be >=3x of 16 KiB (%.1f MB/s)",
			res[1].AggregateBps/1e6, res[0].AggregateBps/1e6)
	}
}

func TestClientScalingMonotoneThenSaturates(t *testing.T) {
	counts := []int{1, 4, 16}
	var agg []float64
	for i, n := range counts {
		fs := mkTestFS(uint64(20 + i))
		r := RunIOR(fs, IORConfig{Clients: n, TransferSize: 1 << 20, StoneWall: sim.Second})
		agg = append(agg, r.AggregateBps)
	}
	if agg[1] < 1.5*agg[0] {
		t.Fatalf("4 clients (%.0f) should scale above 1 client (%.0f)", agg[1], agg[0])
	}
	// Saturation: going 4 -> 16 should not quadruple again on a 1-SSU
	// namespace whose controller caps ~18 GB/s.
	if agg[2] > 3.5*agg[1] {
		t.Fatalf("16 clients (%.0f) scaled suspiciously past 4 clients (%.0f)", agg[2], agg[1])
	}
}

func TestPlacers(t *testing.T) {
	tor := topology.TitanTorus()
	rp := RandomPlacer(tor, 7)
	seen := map[topology.Coord]bool{}
	for i := 0; i < 100; i++ {
		c := rp(i)
		if !tor.Contains(c) {
			t.Fatalf("random placer out of torus: %v", c)
		}
		seen[c] = true
	}
	if len(seen) < 90 {
		t.Fatalf("random placer collided heavily: %d unique of 100", len(seen))
	}
	if rp(5) != rp(5) {
		t.Fatal("placer not deterministic")
	}
}

func TestCheckpointSizingTitan(t *testing.T) {
	// Scaled-down E2: writers dump memory; throughput must be in the
	// vicinity of the controller envelope so the 6-minute law holds when
	// scaled. Uses the test namespace (1 SSU = ~18 GB/s controller).
	fs := mkTestFS(30)
	res := RunCheckpoint(fs, CheckpointConfig{
		Writers:      16,
		BytesPerRank: 32 << 20,
		TransferSize: 1 << 20,
	})
	if res.BytesMoved != 16*32<<20 {
		t.Fatalf("moved %d", res.BytesMoved)
	}
	gbps := res.AggregateBps / 1e9
	if gbps < 1 || gbps > 20 {
		t.Fatalf("checkpoint rate %.2f GB/s outside expected 1-SSU envelope", gbps)
	}
}

func TestAnalyticsLatencyBound(t *testing.T) {
	fs := mkTestFS(31)
	res := RunAnalytics(fs, AnalyticsConfig{
		Readers:     4,
		Requests:    25,
		RequestSize: 64 << 10,
	})
	if res.Latency.N != 100 {
		t.Fatalf("latency samples = %d", res.Latency.N)
	}
	// Random 64 KiB reads: a few ms to tens of ms each.
	if res.Latency.Mean < 1 || res.Latency.Mean > 200 {
		t.Fatalf("mean latency %.2f ms implausible", res.Latency.Mean)
	}
	if res.P95Millis < res.Latency.Mean {
		t.Fatalf("p95 %.2f below mean %.2f", res.P95Millis, res.Latency.Mean)
	}
}

func TestMixedWorkloadCharacteristics(t *testing.T) {
	fs := mkTestFS(32)
	cfg := DefaultMixed()
	cfg.Duration = 4 * sim.Second
	cfg.MeanArrival = 4 * sim.Millisecond
	cfg.LargeMaxUnits = 4
	tr := RunMixed(fs, cfg, rng.New(99))
	if tr.Writes+tr.Reads < 2000 {
		t.Fatalf("only %d requests generated", tr.Writes+tr.Reads)
	}
	wf := tr.WriteFraction()
	if wf < 0.55 || wf > 0.65 {
		t.Fatalf("write fraction = %.3f, want ~0.60", wf)
	}
	// Bimodal sizes: substantial mass below 16 KiB and at >= 1 MiB.
	small, large := 0, 0
	for _, s := range tr.Sizes {
		if s <= 16<<10 {
			small++
		}
		if s >= 1<<20 {
			large++
		}
	}
	frac := func(n int) float64 { return float64(n) / float64(len(tr.Sizes)) }
	if frac(small) < 0.3 || frac(large) < 0.3 {
		t.Fatalf("size bimodality lost: small=%.2f large=%.2f", frac(small), frac(large))
	}
	// Inter-arrival tail: fitting above the median gap should recover a
	// heavy tail (alpha well under 3) as the paper found.
	fit := stats.FitPareto(tr.InterArrivals, stats.Percentile(tr.InterArrivals, 0.5))
	if fit.Alpha <= 0.2 || fit.Alpha > 3.0 {
		t.Fatalf("inter-arrival Pareto tail alpha = %.2f, want heavy tail", fit.Alpha)
	}
	if fit.N < 100 {
		t.Fatalf("tail fit used only %d gaps", fit.N)
	}
}

func TestFairLIODiskSweepShape(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(40)
	d := disk.New(eng, 0, disk.NLSAS2TB(), disk.Nominal(), src.Split("d"))
	seq := RunFairLIODisk(eng, d, FairLIOConfig{
		RequestSize: 1 << 20, QueueDepth: 4, WriteFrac: 0, Random: false,
		Duration: 2 * sim.Second,
	}, src.Split("a"))
	d2 := disk.New(eng, 1, disk.NLSAS2TB(), disk.Nominal(), src.Split("d2"))
	rnd := RunFairLIODisk(eng, d2, FairLIOConfig{
		RequestSize: 1 << 20, QueueDepth: 4, WriteFrac: 0, Random: true,
		Duration: 2 * sim.Second,
	}, src.Split("b"))
	if seq.MBps <= 0 || rnd.MBps <= 0 {
		t.Fatal("no throughput measured")
	}
	ratio := rnd.MBps / seq.MBps
	if ratio < 0.15 || ratio > 0.35 {
		t.Fatalf("random/seq = %.3f (%.0f/%.0f MB/s), want ~0.2-0.25", ratio, rnd.MBps, seq.MBps)
	}
	if seq.LatencyMs.N == 0 || rnd.LatencyMs.Mean <= seq.LatencyMs.Mean {
		t.Fatalf("random latency (%.2f) should exceed sequential (%.2f)",
			rnd.LatencyMs.Mean, seq.LatencyMs.Mean)
	}
}

func TestFairLIOGroupSequentialWrite(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(41)
	groups := raid.BuildGroups(eng, 1, raid.Spider2Group(), disk.NLSAS2TB(), disk.DefaultPopulation(), src.Split("g"))
	res := RunFairLIOGroup(eng, groups[0], FairLIOConfig{
		RequestSize: 1 << 20, QueueDepth: 8, WriteFrac: 1, Random: false,
		Duration: 2 * sim.Second,
	}, src.Split("w"))
	// Full-stripe sequential writes across 8 data disks: several hundred
	// MB/s.
	if res.MBps < 300 || res.MBps > 1200 {
		t.Fatalf("group sequential write = %.0f MB/s, want ~500-1000", res.MBps)
	}
}

func TestObdSurveyPhases(t *testing.T) {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(42))
	var file *lustre.File
	fs.Create("survey", 1, func(f *lustre.File) { file = f })
	eng.Run()
	drv := objDriver{obj: file.Objects[0]}
	res := RunObdSurvey(eng, drv, 32<<20, 1<<20, 4)
	if res.WriteMBps <= 0 || res.ReadMBps <= 0 || res.RewriteMBps <= 0 {
		t.Fatalf("survey produced zeros: %+v", res)
	}
}

type objDriver struct{ obj *lustre.Object }

func (d objDriver) Write(size int64, done func())             { d.obj.Write(size, done) }
func (d objDriver) Read(size int64, random bool, done func()) { d.obj.Read(size, random, done) }
