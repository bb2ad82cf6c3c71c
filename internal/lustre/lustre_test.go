package lustre

import (
	"fmt"
	"testing"

	"spiderfs/internal/disk"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

func testFS(t *testing.T, seed uint64) (*sim.Engine, *FS) {
	t.Helper()
	eng := sim.NewEngine()
	fs := Build(eng, TestNamespace(), rng.New(seed))
	return eng, fs
}

func TestBuildShapes(t *testing.T) {
	_, fs := testFS(t, 1)
	if len(fs.OSTs) != 4 || len(fs.OSSes) != 2 || len(fs.Ctrls) != 1 {
		t.Fatalf("shape: %d osts, %d osses, %d ctrls", len(fs.OSTs), len(fs.OSSes), len(fs.Ctrls))
	}
	for i := range fs.OSTs {
		if oss := fs.OSSOf(i); oss < 0 || oss >= 2 {
			t.Fatalf("ost %d mapped to oss %d", i, oss)
		}
	}
}

func TestSpider2NamespaceShape(t *testing.T) {
	p := Spider2Namespace()
	if p.NumSSU*p.OSTsPerSSU != 1008 {
		t.Fatalf("OSTs per namespace = %d, want 1008", p.NumSSU*p.OSTsPerSSU)
	}
	if p.NumSSU*p.OSSPerSSU != 144 {
		t.Fatalf("OSSes per namespace = %d, want 144", p.NumSSU*p.OSSPerSSU)
	}
	// 10,080 disks * 2 TB ~ 20 PB raw per namespace; 16 PB data.
	raw := int64(p.NumSSU*p.OSTsPerSSU*raid.Spider2Group().Width()) * p.DiskCfg.Capacity
	if raw != 20_160_000_000_000_000/1*2016/2016 {
		// 10,080 * 2e12 = 2.016e16
		if raw != 20_160_000_000_000_000 {
			t.Fatalf("raw capacity = %d", raw)
		}
	}
	scaled := p.Scale(6)
	if scaled.NumSSU != 3 {
		t.Fatalf("scaled SSUs = %d", scaled.NumSSU)
	}
}

func TestCreateWriteReadUnlink(t *testing.T) {
	eng, fs := testFS(t, 2)
	tr := NullTransport{Eng: eng}
	client := NewClient(0, topology.Coord{}, fs, tr)
	var file *File
	fs.Create("proj/run1/out.dat", 2, func(f *File) { file = f })
	eng.Run()
	if file == nil {
		t.Fatal("create callback never ran")
	}
	if file.StripeCount() != 2 {
		t.Fatalf("stripes = %d", file.StripeCount())
	}

	var wrote int64
	client.WriteStream(file, 8<<20, 1<<20, func(n int64) { wrote = n })
	eng.Run()
	if wrote != 8<<20 {
		t.Fatalf("wrote %d", wrote)
	}
	if file.Size() != 8<<20 {
		t.Fatalf("file size %d", file.Size())
	}
	if client.BytesWritten != 8<<20 {
		t.Fatalf("client counter %d", client.BytesWritten)
	}

	var read int64
	client.ReadStream(file, 4<<20, 1<<20, false, func(n int64) { read = n })
	eng.Run()
	if read != 4<<20 {
		t.Fatalf("read %d", read)
	}

	fs.Unlink("proj/run1/out.dat", nil)
	eng.Run()
	if fs.NumFiles != 0 {
		t.Fatalf("files = %d after unlink", fs.NumFiles)
	}
	if u := fs.TotalUsed(); u != 0 {
		t.Fatalf("used = %d after unlink", u)
	}
}

func TestWriteDistributesAcrossStripes(t *testing.T) {
	eng, fs := testFS(t, 3)
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	var file *File
	fs.Create("wide", 4, func(f *File) { file = f })
	eng.Run()
	client.WriteStream(file, 16<<20, 1<<20, nil)
	eng.Run()
	for i, obj := range file.Objects {
		if obj.Size != 4<<20 {
			t.Fatalf("stripe %d got %d bytes, want 4 MiB", i, obj.Size)
		}
	}
}

func TestStonewallStopsAtDeadline(t *testing.T) {
	eng, fs := testFS(t, 4)
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	var file *File
	fs.Create("wall", 4, func(f *File) { file = f })
	eng.Run()
	deadline := eng.Now() + 2*sim.Second
	var wrote int64
	client.WriteUntil(file, deadline, 1<<20, func(n int64) { wrote = n })
	eng.Run()
	if wrote <= 0 {
		t.Fatal("stonewall wrote nothing")
	}
	// Completion should come shortly after the deadline (drain time), not
	// run unbounded.
	if eng.Now() > deadline+5*sim.Second {
		t.Fatalf("stonewall drained at %v, deadline %v", eng.Now(), deadline)
	}
}

func TestMDSCountersAndStatGlimpse(t *testing.T) {
	eng, fs := testFS(t, 5)
	var file *File
	fs.Create("f1", 4, func(f *File) { file = f })
	eng.Run()
	if fs.MDS.Creates != 1 {
		t.Fatalf("creates = %d", fs.MDS.Creates)
	}
	before := fs.OSSes[0].RPCs + fs.OSSes[1].RPCs
	statted := false
	fs.Stat(file, func() { statted = true })
	eng.Run()
	if !statted || fs.MDS.Stats != 1 {
		t.Fatalf("stat: done=%v count=%d", statted, fs.MDS.Stats)
	}
	glimpses := fs.OSSes[0].RPCs + fs.OSSes[1].RPCs - before
	if glimpses != 4 {
		t.Fatalf("glimpse RPCs = %d, want stripeCount=4", glimpses)
	}
}

func TestStatCostScalesWithStripeCount(t *testing.T) {
	// When the OSS side is the constraint, stat on stripe-4 files takes
	// ~2x the wall time of stripe-1 (4 glimpses over 2 OSSes vs 1): the
	// paper's "set stripe count 1 on small files" guidance.
	run := func(stripes int) sim.Time {
		eng := sim.NewEngine()
		p := TestNamespace()
		p.MDSCfg.Stat = sim.Microsecond // make glimpses the bottleneck
		p.OSSCfg.Cores = 1
		fs := Build(eng, p, rng.New(6))
		var file *File
		fs.Create("f", stripes, func(f *File) { file = f })
		eng.Run()
		start := eng.Now()
		for i := 0; i < 500; i++ {
			fs.Stat(file, nil)
		}
		eng.Run()
		return eng.Now() - start
	}
	t1, t4 := run(1), run(4)
	if float64(t4) < 1.5*float64(t1) {
		t.Fatalf("stat stripe4 (%v) should cost ~2x stripe1 (%v)", t4, t1)
	}
}

func TestFullStripeWritesAvoidRMW(t *testing.T) {
	eng, fs := testFS(t, 7)
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	var file *File
	fs.Create("aligned", 1, func(f *File) { file = f })
	eng.Run()
	client.WriteStream(file, 32<<20, 1<<20, nil)
	eng.Run()
	ost := fs.OSTs[file.OSTIndices[0]]
	if ost.SequentialFlushes == 0 {
		t.Fatal("no sequential full-stripe flushes")
	}
	g := ost.Group()
	if g.PartialWrite > g.FullStripeWrite/4 {
		t.Fatalf("too many RMW writes for aligned stream: partial=%d full=%d",
			g.PartialWrite, g.FullStripeWrite)
	}
}

func TestHighFillCausesFragmentation(t *testing.T) {
	eng, fs := testFS(t, 8)
	for _, ost := range fs.OSTs {
		ost.SetFill(0.9)
	}
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	var file *File
	fs.Create("frag", 1, func(f *File) { file = f })
	eng.Run()
	client.WriteStream(file, 32<<20, 1<<20, nil)
	eng.Run()
	ost := fs.OSTs[file.OSTIndices[0]]
	if ost.FragmentedFlushes == 0 {
		t.Fatal("90% full OST produced no fragmented flushes")
	}
	if ost.FragmentProb() < 0.5 {
		t.Fatalf("fragment probability at 90%% fill = %f", ost.FragmentProb())
	}
}

func TestFillLevelDegradesThroughput(t *testing.T) {
	run := func(fill float64) float64 {
		eng, fs := testFS(t, 9)
		for _, ost := range fs.OSTs {
			ost.SetFill(fill)
		}
		client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
		var file *File
		fs.Create("f", 4, func(f *File) { file = f })
		eng.Run()
		start := eng.Now()
		total := int64(64 << 20)
		client.WriteStream(file, total, 1<<20, nil)
		eng.Run()
		return float64(total) / 1e6 / (eng.Now() - start).Seconds()
	}
	empty := run(0.1)
	full := run(0.9)
	if full >= empty*0.9 {
		t.Fatalf("90%% full (%.1f MB/s) should be clearly slower than 10%% full (%.1f MB/s)", full, empty)
	}
}

func TestControllerCacheBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	p := TestNamespace()
	p.CtrlCfg.CacheBytes = 4 << 20 // tiny cache to force stalls
	fs := Build(eng, p, rng.New(10))
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	var file *File
	fs.Create("big", 1, func(f *File) { file = f })
	eng.Run()
	client.WriteStream(file, 64<<20, 1<<20, nil)
	eng.Run()
	ctrl := fs.Ctrls[0]
	if ctrl.CacheStalls == 0 {
		t.Fatal("expected cache stalls with 4 MiB cache and 64 MiB write")
	}
	if ctrl.Dirty() != 0 {
		t.Fatalf("dirty = %d after quiesce", ctrl.Dirty())
	}
	if ctrl.PeakDirty > 5<<20 {
		t.Fatalf("peak dirty %d exceeded cache bound", ctrl.PeakDirty)
	}
}

func TestMkdirAllAndOpen(t *testing.T) {
	eng, fs := testFS(t, 11)
	fs.MkdirAll("a/b/c", nil)
	eng.Run()
	if fs.MDS.Mkdirs != 3 {
		t.Fatalf("mkdirs = %d", fs.MDS.Mkdirs)
	}
	fs.Create("a/b/c/file", 1, nil)
	eng.Run()
	var got *File
	fs.Open("a/b/c/file", func(f *File) { got = f })
	eng.Run()
	if got == nil {
		t.Fatal("open failed to resolve")
	}
	var missing *File = &File{}
	fs.Open("a/b/c/nope", func(f *File) { missing = f })
	eng.Run()
	if missing != nil {
		t.Fatal("open of missing file should yield nil")
	}
}

func TestWalkDeterministicOrder(t *testing.T) {
	eng, fs := testFS(t, 12)
	for _, p := range []string{"z/1", "a/2", "a/1", "m"} {
		fs.Create(p, 1, nil)
	}
	eng.Run()
	var order []string
	fs.Walk(nil, func(f *File) { order = append(order, f.Path) })
	want := []string{"m", "a/1", "a/2", "z/1"}
	if len(order) != len(want) {
		t.Fatalf("walk found %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("walk order %v, want %v", order, want)
		}
	}
}

func TestCreateOnPlacement(t *testing.T) {
	eng, fs := testFS(t, 13)
	var file *File
	fs.CreateOn("placed", []int{3, 1}, func(f *File) { file = f })
	eng.Run()
	if file.OSTIndices[0] != 3 || file.OSTIndices[1] != 1 {
		t.Fatalf("placement ignored: %v", file.OSTIndices)
	}
}

func TestDuplicateCreatePanics(t *testing.T) {
	eng, fs := testFS(t, 14)
	fs.Create("dup", 1, nil)
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fs.Create("dup", 1, nil)
}

func TestRoundRobinAllocatorRotates(t *testing.T) {
	eng, fs := testFS(t, 15)
	counts := map[int]int{}
	for i := 0; i < 8; i++ {
		fs.Create(pathN(i), 1, func(f *File) {
			counts[f.OSTIndices[0]]++
		})
	}
	eng.Run()
	for ost, c := range counts {
		if c != 2 {
			t.Fatalf("ost %d allocated %d files; round robin should balance (counts=%v)", ost, c, counts)
		}
	}
}

func pathN(i int) string {
	return string(rune('a'+i)) + "/f"
}

// TestBuildStreamsGolden checks Build's slab against the labels it
// splits: each SSU's drives come from src.Split("ssu-<k>") and each
// OST's stream is src.Split("ost-<i>"), drawn in the order the
// one-record-at-a-time build drew them.
func TestBuildStreamsGolden(t *testing.T) {
	p := TestNamespace()
	p.NumSSU = 3
	eng := sim.NewEngine()
	fs := Build(eng, p, rng.New(9))
	ref := rng.New(9)
	probe := disk.Op{LBA: 1 << 20, Size: 1 << 20}
	for ssu := 0; ssu < p.NumSSU; ssu++ {
		want := raid.BuildGroups(eng, p.OSTsPerSSU, p.DiskCfg, ref.Split(fmt.Sprintf("ssu-%d", ssu)))
		for i, wg := range want {
			id := ssu*p.OSTsPerSSU + i
			o := fs.OSTs[id]
			for m, wd := range wg.Disks() {
				gd := o.Group().Disks()[m]
				for k := 0; k < 4; k++ {
					if g, w := gd.ServiceTime(probe), wd.ServiceTime(probe); gd.Health() != wd.Health() || g != w {
						t.Fatalf("ssu %d ost %d member %d draw %d: service %v, want %v", ssu, id, m, k, g, w)
					}
				}
			}
		}
		for i := 0; i < p.OSTsPerSSU; i++ {
			id := ssu*p.OSTsPerSSU + i
			if want := ref.Split(fmt.Sprintf("ost-%d", id)); fs.OSTs[id].src != *want {
				t.Fatalf("ost %d stream differs from Split(\"ost-%d\")", id, id)
			}
		}
	}
}
