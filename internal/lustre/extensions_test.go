package lustre

import (
	"fmt"
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

// --- §IV-D high-performance journaling ---

func journalRun(t *testing.T, mode JournalMode) float64 {
	t.Helper()
	eng := sim.NewEngine()
	fs := Build(eng, TestNamespace(), rng.New(77))
	for _, ost := range fs.OSTs {
		ost.Journal = mode
	}
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	var file *File
	fs.Create("j/data", 4, func(f *File) { file = f })
	eng.Run()
	start := eng.Now()
	total := int64(64 << 20)
	client.WriteStream(file, total, 1<<20, nil)
	eng.Run() // drain to disk: journaling costs show at flush time
	return float64(total) / (eng.Now() - start).Seconds() / 1e6
}

func TestHPJournalingBeatsSyncJournal(t *testing.T) {
	hp := journalRun(t, HPJournal)
	sync := journalRun(t, SyncJournal)
	gain := hp / sync
	if gain < 1.2 {
		t.Fatalf("HP journaling gain = %.2fx (hp %.0f vs sync %.0f MB/s); the funded feature should matter", gain, hp, sync)
	}
	if gain > 12 {
		t.Fatalf("HP journaling gain = %.2fx implausibly large", gain)
	}
}

func TestSyncJournalCountsCommits(t *testing.T) {
	eng := sim.NewEngine()
	fs := Build(eng, TestNamespace(), rng.New(78))
	fs.OSTs[0].Journal = SyncJournal
	var file *File
	fs.CreateOn("j/f", []int{0}, func(f *File) { file = f })
	eng.Run()
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	client.WriteStream(file, 8<<20, 1<<20, nil)
	eng.Run()
	if fs.OSTs[0].JournalCommits == 0 {
		t.Fatal("no journal commits recorded")
	}
}

// --- §IV-D imperative recovery ---

func TestOSSFailStallsAndReplays(t *testing.T) {
	eng := sim.NewEngine()
	fs := Build(eng, TestNamespace(), rng.New(79))
	oss := fs.OSSes[0]
	oss.Fail()
	done := false
	oss.Service(1<<20, func() { done = true })
	eng.Run()
	if done {
		t.Fatal("RPC completed against a failed OSS")
	}
	if oss.StalledRPCs != 1 {
		t.Fatalf("stalled = %d", oss.StalledRPCs)
	}
	oss.Recover()
	eng.Run()
	if !done {
		t.Fatal("stalled RPC not replayed at recovery")
	}
	oss.Recover() // idempotent
}

func TestImperativeRecoveryShortensOutage(t *testing.T) {
	run := func(imperative bool) sim.Time {
		eng := sim.NewEngine()
		fs := Build(eng, TestNamespace(), rng.New(80))
		var outage sim.Time
		FailOSS(fs, 0, imperative, func(d sim.Time) { outage = d })
		eng.Run()
		return outage
	}
	without := run(false)
	with := run(true)
	if with >= without {
		t.Fatalf("IR outage %v not shorter than %v", with, without)
	}
	// 15+5+30=50s vs 15+300+30=345s.
	if with != 50*sim.Second || without != 345*sim.Second {
		t.Fatalf("outages = %v / %v, want 50s / 345s", with, without)
	}
}

func TestFailOSSStallsApplicationWrites(t *testing.T) {
	eng := sim.NewEngine()
	fs := Build(eng, TestNamespace(), rng.New(81))
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	var file *File
	fs.CreateOn("app/f", []int{0}, func(f *File) { file = f }) // OST0 -> OSS0
	eng.Run()
	FailOSS(fs, 0, true, nil)
	var doneAt sim.Time
	client.WriteStream(file, 4<<20, 1<<20, func(int64) { doneAt = eng.Now() })
	eng.Run()
	if doneAt < outageDuration(true) {
		t.Fatalf("write finished at %v, before the %v outage ended", doneAt, outageDuration(true))
	}
}

func TestDoubleFailReturnsError(t *testing.T) {
	eng := sim.NewEngine()
	fs := Build(eng, TestNamespace(), rng.New(82))
	if err := FailOSS(fs, 0, true, nil); err != nil {
		t.Fatalf("first fault: %v", err)
	}
	if err := FailOSS(fs, 0, true, nil); err == nil {
		t.Fatal("faulting a down OSS should return an error")
	}
	if fs.OSSes[0].DoubleFaults != 1 {
		t.Fatalf("DoubleFaults = %d, want 1", fs.OSSes[0].DoubleFaults)
	}
	if err := FailOSS(fs, len(fs.OSSes), true, nil); err == nil {
		t.Fatal("out-of-range OSS index should return an error")
	}
	// The run stays healthy: recovery completes as scheduled.
	eng.Run()
	if fs.OSSes[0].Down() {
		t.Fatal("OSS should have recovered")
	}
}

func TestRecoverReplaysStalledRPCsFIFO(t *testing.T) {
	eng := sim.NewEngine()
	fs := Build(eng, TestNamespace(), rng.New(85))
	oss := fs.OSSes[0]
	oss.Fail()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		oss.Service(1<<20, func() { order = append(order, i) })
	}
	if oss.StalledRPCs != 5 {
		t.Fatalf("stalled = %d, want 5", oss.StalledRPCs)
	}
	oss.Recover()
	eng.Run()
	if len(order) != 5 {
		t.Fatalf("completions = %d, want 5", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("replay order %v, want FIFO arrival order", order)
		}
	}
}

func TestRPCWatchdogCountsStalledSends(t *testing.T) {
	eng := sim.NewEngine()
	fs := Build(eng, TestNamespace(), rng.New(86))
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	client.RPCTimeout = 100 * sim.Second
	var file *File
	fs.CreateOn("app/f", []int{0}, func(f *File) { file = f })
	eng.Run()
	// 345 s outage under exponential backoff: the watchdog fires at
	// t=100 s (base) and t=300 s (backed-off 200 s arm); the 400 s arm
	// is cancelled when the OSS recovers at 345 s.
	if err := FailOSS(fs, 0, false, nil); err != nil {
		t.Fatal(err)
	}
	client.WriteStream(file, 1<<20, 1<<20, nil)
	eng.Run()
	if client.RPCTimeouts != 2 || client.RPCRetries != 2 {
		t.Fatalf("timeouts/retries = %d/%d, want 2/2 across the %v outage",
			client.RPCTimeouts, client.RPCRetries, outageDuration(false))
	}
	if client.BackoffWaits != 1 || client.BackoffWait != 100*sim.Second {
		t.Fatalf("backoff waits/extra = %d/%v, want 1/100s",
			client.BackoffWaits, client.BackoffWait)
	}
	// A healthy write trips no watchdog.
	before := client.RPCTimeouts
	client.WriteStream(file, 4<<20, 1<<20, nil)
	eng.Run()
	if client.RPCTimeouts != before {
		t.Fatalf("healthy write tripped %d watchdogs", client.RPCTimeouts-before)
	}
}

// --- DNE ---

func TestDNEShardsMetadata(t *testing.T) {
	eng := sim.NewEngine()
	fs := Build(eng, TestNamespace(), rng.New(83))
	fs.EnableDNE(4)
	if len(fs.MDTs) != 4 {
		t.Fatalf("MDTs = %d", len(fs.MDTs))
	}
	// Files in distinct top-level dirs land on multiple MDTs.
	for i := 0; i < 64; i++ {
		fs.Create(fmt.Sprintf("proj%02d/file", i), 1, nil)
	}
	eng.Run()
	active := 0
	var total uint64
	for _, m := range fs.MDTs {
		if m.Creates > 0 {
			active++
		}
		total += m.Creates
	}
	if total != 64 {
		t.Fatalf("creates across MDTs = %d", total)
	}
	if active < 3 {
		t.Fatalf("only %d MDTs received creates; sharding broken", active)
	}
	if fs.MetadataOps() != total {
		t.Fatalf("MetadataOps = %d, want %d", fs.MetadataOps(), total)
	}
}

func TestDNESameDirSameMDT(t *testing.T) {
	eng := sim.NewEngine()
	fs := Build(eng, TestNamespace(), rng.New(84))
	fs.EnableDNE(4)
	for i := 0; i < 20; i++ {
		fs.Create(fmt.Sprintf("fixed/f%02d", i), 1, nil)
	}
	eng.Run()
	nonzero := 0
	for _, m := range fs.MDTs {
		if m.Creates > 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("one directory spread across %d MDTs; must stay on its shard", nonzero)
	}
}

func TestDNERaisesMetadataThroughput(t *testing.T) {
	storm := func(mdts int) sim.Time {
		eng := sim.NewEngine()
		fs := Build(eng, TestNamespace(), rng.New(85))
		if mdts > 1 {
			fs.EnableDNE(mdts)
		}
		start := eng.Now()
		issued := 0
		var worker func(w int)
		worker = func(w int) {
			if issued >= 2000 {
				return
			}
			i := issued
			issued++
			fs.Create(fmt.Sprintf("dir%03d/f%06d", i%64, i), 1, func(*File) { worker(w) })
		}
		for w := 0; w < 32; w++ {
			worker(w)
		}
		eng.Run()
		return eng.Now() - start
	}
	single := storm(1)
	dne := storm(4)
	speedup := float64(single) / float64(dne)
	if speedup < 2 {
		t.Fatalf("DNE(4) speedup = %.2fx, want >2x", speedup)
	}
}
