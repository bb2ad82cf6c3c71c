package placement

import (
	"fmt"
	"testing"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

func testFS(seed uint64) (*sim.Engine, *lustre.FS) {
	// Two SSUs so the balancer has an independent controller + OSS set
	// to steer toward: OSTs 0-3 share controller 0 (OSSes 0-1), OSTs 4-7
	// share controller 1 (OSSes 2-3).
	eng := sim.NewEngine()
	p := lustre.TestNamespace()
	p.NumSSU = 2
	p.OSTsPerSSU = 4
	p.OSSPerSSU = 2
	fs := lustre.Build(eng, p, rng.New(seed))
	return eng, fs
}

func TestSuggestReturnsDistinctValidOSTs(t *testing.T) {
	_, fs := testFS(1)
	b := New(fs, Weights{})
	for sc := 1; sc <= 8; sc++ {
		got := b.Suggest(sc)
		if len(got) != sc {
			t.Fatalf("suggest(%d) returned %d", sc, len(got))
		}
		seen := map[int]bool{}
		for _, o := range got {
			if o < 0 || o >= len(fs.OSTs) || seen[o] {
				t.Fatalf("suggest(%d) = %v invalid", sc, got)
			}
			seen[o] = true
		}
	}
	if got := b.Suggest(100); len(got) != len(fs.OSTs) {
		t.Fatalf("oversized suggest returned %d", len(got))
	}
}

func TestSuggestSpreadsAcrossOSSes(t *testing.T) {
	_, fs := testFS(2)
	b := New(fs, Weights{})
	got := b.Suggest(4)
	osses := map[int]bool{}
	for _, o := range got {
		osses[fs.OSSOf(o)] = true
	}
	if len(osses) != 4 {
		t.Fatalf("4 stripes on %d distinct OSSes, want 4 (%v)", len(osses), got)
	}
}

func TestSuggestAvoidsFullOSTs(t *testing.T) {
	_, fs := testFS(3)
	// Fill half the OSTs nearly full.
	for i := 0; i < 4; i++ {
		fs.OSTs[i].SetFill(0.95)
	}
	b := New(fs, Weights{})
	got := b.Suggest(4)
	for _, o := range got {
		if o < 4 {
			t.Fatalf("balancer picked nearly full OST %d (%v)", o, got)
		}
	}
}

func TestSuggestAvoidsQueuedOSS(t *testing.T) {
	eng, fs := testFS(4)
	// Saturate OSS 0 (serving OSTs 0 and 4) with CPU work.
	hot := fs.OSSes[0]
	for i := 0; i < 200; i++ {
		hot.Service(1<<20, nil)
	}
	// Don't run the engine: the queue is live now.
	b := New(fs, Weights{})
	got := b.Suggest(2)
	for _, o := range got {
		if fs.OSSOf(o) == 0 {
			t.Fatalf("balancer picked OST %d behind saturated OSS (%v)", o, got)
		}
	}
	eng.Run()
}

func TestRoundRobinTieBreakRotates(t *testing.T) {
	_, fs := testFS(5)
	b := New(fs, Weights{})
	first := map[int]bool{}
	for i := 0; i < len(fs.OSTs); i++ {
		first[b.Suggest(1)[0]] = true
	}
	if len(first) < len(fs.OSTs)/2 {
		t.Fatalf("idle-system suggestions reused only %d OSTs", len(first))
	}
}

// The E5 experiment in miniature: with half the OSTs under background
// contention, libPIO-placed jobs must beat default round-robin placement
// substantially.
func TestBalancedPlacementBeatsDefaultUnderContention(t *testing.T) {
	run := func(balanced bool) float64 {
		eng, fs := testFS(6)
		// Background noise: hammer OSTs 0..3 continuously.
		noise := lustre.NewClient(1000, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
		var noiseFiles []*lustre.File
		for i := 0; i < 4; i++ {
			fs.CreateOn(fmt.Sprintf("noise/%d", i), []int{i}, func(f *lustre.File) {
				noiseFiles = append(noiseFiles, f)
			})
		}
		eng.Run()
		for _, f := range noiseFiles {
			noise.WriteUntil(f, eng.Now()+2*sim.Second, 1<<20, nil)
		}
		// Let the noise establish queues before the job places its file:
		// libPIO reads live load, so the system must actually be loaded.
		eng.RunUntil(eng.Now() + 50*sim.Millisecond)
		// The default allocator is load-blind; its rotor lands on the hot
		// OSTs. libPIO sees the queues and steers away.
		var job *lustre.File
		if balanced {
			b := New(fs, Weights{})
			b.CreateBalanced("job/out", 2, func(f *lustre.File) { job = f })
		} else {
			fs.CreateOn("job/out", []int{0, 1}, func(f *lustre.File) { job = f })
		}
		eng.RunUntil(eng.Now() + 10*sim.Millisecond)
		client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
		start := eng.Now()
		totalBytes := int64(32 << 20)
		doneAt := sim.Time(0)
		client.WriteStream(job, totalBytes, 1<<20, func(int64) { doneAt = eng.Now() })
		eng.Run()
		if doneAt == 0 {
			t.Fatal("job never finished")
		}
		return float64(totalBytes) / (doneAt - start).Seconds()
	}
	def := run(false)
	bal := run(true)
	improvement := bal/def - 1
	if improvement < 0.3 {
		t.Fatalf("libPIO improvement = %.0f%% (bal %.1f vs def %.1f MB/s), want >30%%",
			improvement*100, bal/1e6, def/1e6)
	}
}
