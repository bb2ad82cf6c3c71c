package raid

import (
	"testing"

	"spiderfs/internal/disk"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

func TestScrubberPassesWrapAndRepair(t *testing.T) {
	eng, g := smallGroup(t, 31)
	// Plant silent defects the first pass must find.
	src := rng.New(9).Split("defects")
	for i := 0; i < 10; i++ {
		m := src.Intn(10)
		g.Disks()[m].InjectError(src.Int63n(64<<20), disk.Silent)
	}
	planted := 0
	for _, d := range g.Disks() {
		planted += d.CorruptSectors()
	}
	s := NewScrubber(g, ScrubConfig{BatchStripes: 128, BatchPause: sim.Second, PassInterval: sim.Minute})
	s.Start()
	if !s.running {
		t.Fatal("Start did not arm the scrubber")
	}
	s.Start() // idempotent
	eng.RunFor(10 * sim.Minute)
	s.Stop()
	eng.Run()
	if s.Passes < 2 {
		t.Fatalf("Passes = %d, want multiple full-device passes in 10 min", s.Passes)
	}
	if s.Repairs != planted {
		t.Fatalf("Repairs = %d, want the %d planted defects healed", s.Repairs, planted)
	}
	if s.ScannedStripes < g.stripes*2 {
		t.Fatalf("ScannedStripes = %d over %d passes", s.ScannedStripes, s.Passes)
	}
	for _, d := range g.Disks() {
		if d.CorruptSectors() != 0 {
			t.Fatal("scrubbed array still holds corrupt sectors")
		}
	}
}

func TestScrubberStopCancelsPendingBatch(t *testing.T) {
	eng, g := smallGroup(t, 32)
	s := NewScrubber(g, ScrubConfig{BatchStripes: 64, BatchPause: sim.Minute, PassInterval: sim.Hour})
	s.Start()
	eng.RunFor(10 * sim.Second) // first batch done, next is pending
	scanned := s.ScannedStripes
	if scanned == 0 {
		t.Fatal("no stripes scanned before Stop")
	}
	s.Stop()
	if s.running {
		t.Fatal("Stop left the scrubber running")
	}
	eng.RunFor(10 * sim.Minute)
	if s.ScannedStripes != scanned {
		t.Fatalf("scrubber kept scanning after Stop: %d -> %d", scanned, s.ScannedStripes)
	}
}

// TestScrubberRestartResumesChain stops and restarts a scrubber while
// a batch is still reading: the restart must resume the one scrub chain
// already in flight, not start a second one beside it, so the counts
// match a scrubber that was never interrupted.
func TestScrubberRestartResumesChain(t *testing.T) {
	cfg := ScrubConfig{BatchStripes: 64, BatchPause: sim.Second, PassInterval: sim.Minute}
	run := func(restart bool) *Scrubber {
		eng, g := smallGroup(t, 36)
		s := NewScrubber(g, cfg)
		s.Start()
		if restart {
			eng.RunFor(sim.Millisecond) // the first batch is still reading
			if s.ScannedStripes != 0 {
				t.Fatal("first batch finished before the restart")
			}
			s.Stop()
			s.Start()
		}
		eng.RunFor(10 * sim.Minute)
		s.Stop()
		eng.Run()
		return s
	}
	clean, restarted := run(false), run(true)
	if clean.ScannedStripes != 4608 || clean.Passes != 9 {
		t.Fatalf("clean start: %d stripes in %d passes, want 4608 in 9", clean.ScannedStripes, clean.Passes)
	}
	if restarted.ScannedStripes != clean.ScannedStripes || restarted.Passes != clean.Passes {
		t.Fatalf("restart mid-batch: %d stripes in %d passes, clean start %d in %d",
			restarted.ScannedStripes, restarted.Passes, clean.ScannedStripes, clean.Passes)
	}
}

// TestScrubberBatchAllocationCeiling pins the steady-state scrub path:
// on a warmed group with no defects, one batch cycle (the pause timer,
// ten member reads, the barrier and the completion) allocates nothing.
// The scrubber owns its batch's barrier and binds its callbacks once.
func TestScrubberBatchAllocationCeiling(t *testing.T) {
	eng, g := smallGroup(t, 37)
	cfg := ScrubConfig{BatchStripes: 64, BatchPause: sim.Second, PassInterval: sim.Second}
	s := NewScrubber(g, cfg)
	cycle := func() {
		want := s.ScannedStripes + cfg.BatchStripes
		for s.ScannedStripes < want && eng.Step() {
		}
	}
	s.Start()
	for i := 0; i < 16; i++ { // two passes: every queue and free list at size
		cycle()
	}
	before := s.ScannedStripes
	perBatch := testing.AllocsPerRun(100, cycle)
	if got := s.ScannedStripes - before; got != 101*cfg.BatchStripes {
		t.Fatalf("scanned %d stripes over 101 cycles, want %d", got, 101*cfg.BatchStripes)
	}
	if perBatch > 0 {
		t.Errorf("steady-state scrub batch allocates %.2f, want 0", perBatch)
	}
	s.Stop()
}

func TestScrubberHaltsOnGroupFailure(t *testing.T) {
	eng, g := smallGroup(t, 33)
	s := NewScrubber(g, ScrubConfig{BatchStripes: 64, BatchPause: sim.Second, PassInterval: sim.Second})
	s.Start()
	eng.RunFor(5 * sim.Second)
	g.FailDisk(0)
	g.FailDisk(1)
	g.FailDisk(2) // group failed
	eng.RunFor(10 * sim.Minute)
	if s.running {
		t.Fatal("scrubber still armed over a failed group")
	}
}

// TestScrubberEscalateHook plants more defects on one stripe than
// parity can absorb and checks that the escalation hook reports
// exactly what the Lost counter records — the operations-ledger tap.
func TestScrubberEscalateHook(t *testing.T) {
	eng, g := smallGroup(t, 35)
	// Three silent defects on the same stripe of a RAID-6 group: one
	// beyond the two parity can reconstruct.
	stripe := int64(100)
	for _, m := range []int{2, 4, 6} {
		g.Disks()[m].InjectError(stripe*g.Config().ChunkSize, disk.Silent)
	}
	s := NewScrubber(g, ScrubConfig{BatchStripes: 512, BatchPause: sim.Second, PassInterval: sim.Hour})
	escalated := 0
	calls := 0
	s.Escalate = func(lost int) {
		if lost <= 0 {
			t.Fatalf("Escalate called with lost=%d", lost)
		}
		escalated += lost
		calls++
	}
	s.Start()
	eng.RunFor(sim.Minute)
	s.Stop()
	eng.Run()
	if s.Lost == 0 {
		t.Fatal("planted triple-defect stripe was not escalated")
	}
	if escalated != s.Lost {
		t.Fatalf("hook saw %d lost stripes across %d calls, counter says %d", escalated, calls, s.Lost)
	}
}

func TestScrubberCountsRebuildOverlaps(t *testing.T) {
	eng, g := smallGroup(t, 34)
	g.RebuildChunk = 8
	g.RebuildPause = 10 * sim.Second
	g.FailDisk(3)
	// Latent URE on a survivor: the scrub finds it mid-rebuild.
	g.Disks()[5].InjectError(100*g.Config().ChunkSize, disk.URE)
	repl := disk.New(eng, 99, g.Disks()[0].Config(), disk.Nominal(), rng.New(4).Split("r"))
	g.StartRebuild(3, repl, nil)
	s := NewScrubber(g, ScrubConfig{BatchStripes: 512, BatchPause: sim.Second, PassInterval: sim.Hour})
	s.Start()
	eng.RunFor(5 * sim.Second)
	if s.RebuildOverlaps == 0 || s.Repairs == 0 {
		t.Fatalf("overlaps/repairs = %d/%d, want scrub-during-rebuild defect counted",
			s.RebuildOverlaps, s.Repairs)
	}
	s.Stop()
	eng.Run()
}
