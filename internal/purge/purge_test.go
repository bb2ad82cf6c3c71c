package purge

import (
	"fmt"
	"testing"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

func freshFS(seed uint64) (*sim.Engine, *lustre.FS) {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	return eng, fs
}

// mkFiles creates n preloaded files under prefix at the current time.
func mkFiles(fs *lustre.FS, prefix string, n int, size int64) {
	for i := 0; i < n; i++ {
		fs.Create(fmt.Sprintf("%s/f%03d", prefix, i), 1, func(f *lustre.File) {
			f.Objects[0].Preload(size)
		})
	}
}

func TestSweepDeletesOnlyExpired(t *testing.T) {
	eng, fs := freshFS(1)
	mkFiles(fs, "old", 20, 1<<20)
	eng.Run()
	// Advance past the retention window, then create fresh files.
	eng.RunUntil(15 * sim.Day)
	mkFiles(fs, "new", 10, 1<<20)
	eng.Run()

	p := New(fs, Spider2Policy())
	var rep SweepReport
	p.Sweep(func(r SweepReport) { rep = r })
	eng.Run()

	if rep.Scanned != 30 {
		t.Fatalf("scanned %d", rep.Scanned)
	}
	if rep.Deleted != 20 {
		t.Fatalf("deleted %d, want the 20 expired", rep.Deleted)
	}
	if rep.BytesFreed != 20<<20 {
		t.Fatalf("freed %d", rep.BytesFreed)
	}
	if fs.NumFiles != 10 {
		t.Fatalf("files left = %d", fs.NumFiles)
	}
	if rep.FillAfter >= rep.FillBefore {
		t.Fatalf("fill did not drop: %f -> %f", rep.FillBefore, rep.FillAfter)
	}
}

func TestAccessRefreshesRetention(t *testing.T) {
	eng, fs := freshFS(2)
	mkFiles(fs, "data", 5, 1<<20)
	eng.Run()
	// Touch one file at day 10 by reading it.
	var touched *lustre.File
	fs.Open("data/f002", func(f *lustre.File) { touched = f })
	eng.Run()
	eng.RunUntil(10 * sim.Day)
	touched.ATime = eng.Now() // analytics job read it

	eng.RunUntil(15 * sim.Day)
	p := New(fs, Spider2Policy())
	p.Sweep(nil)
	eng.Run()
	if fs.NumFiles != 1 {
		t.Fatalf("files left = %d, want only the touched one", fs.NumFiles)
	}
	var left []string
	fs.Walk(nil, func(f *lustre.File) { left = append(left, f.Path) })
	if len(left) != 1 || left[0] != "data/f002" {
		t.Fatalf("survivor = %v", left)
	}
}

func TestPeriodicSweepsHoldUtilization(t *testing.T) {
	eng, fs := freshFS(4)
	p := New(fs, Policy{MaxAge: 3 * sim.Day, Interval: sim.Day, Concurrency: 8})
	p.Start()
	// A daily job writes new files; without purging, fill grows
	// unboundedly. Note each day's files expire 3 days later.
	day := 0
	var producer func()
	producer = func() {
		if day >= 12 {
			return
		}
		mkFiles(fs, fmt.Sprintf("day%02d", day), 8, 8<<20)
		day++
		eng.After(sim.Day, producer)
	}
	producer()
	eng.RunUntil(12 * sim.Day)
	p.Stop()
	eng.Run()

	if len(p.Sweeps) < 10 {
		t.Fatalf("only %d sweeps in 12 days", len(p.Sweeps))
	}
	if p.Deleted == 0 {
		t.Fatal("periodic purge deleted nothing")
	}
	// Steady state: roughly 4 days of production retained (~32 files).
	if fs.NumFiles > 50 {
		t.Fatalf("%d files retained; purge failed to bound capacity", fs.NumFiles)
	}
}

func TestStopCancelsPending(t *testing.T) {
	eng, fs := freshFS(5)
	p := New(fs, Policy{MaxAge: sim.Day, Interval: sim.Day, Concurrency: 2})
	p.Start()
	p.Stop()
	eng.Run()
	if len(p.Sweeps) != 0 {
		t.Fatalf("sweeps ran after stop: %d", len(p.Sweeps))
	}
}

func TestInvalidPolicyPanics(t *testing.T) {
	_, fs := freshFS(6)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(fs, Policy{MaxAge: 0, Concurrency: 1})
}
