package lustre

import (
	"testing"

	"spiderfs/internal/disk"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

// --- RPC retry backoff (satellite: exponential backoff with jitter) ---

// backoffTimeout is the watchdog the outage runs arm.
const backoffTimeout = 20 * sim.Second

func backoffOutageRun(t *testing.T, src *rng.Source) *Client {
	t.Helper()
	eng := sim.NewEngine()
	fs := Build(eng, TestNamespace(), rng.New(90))
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	client.RPCTimeout = backoffTimeout
	client.BackoffSrc = src
	var file *File
	fs.CreateOn("app/f", []int{0}, func(f *File) { file = f })
	eng.Run()
	if err := FailOSS(fs, 0, false, nil); err != nil {
		t.Fatal(err)
	}
	client.WriteStream(file, 1<<20, 1<<20, nil)
	eng.Run()
	return client
}

func TestRetryBackoffJitterDeterministic(t *testing.T) {
	a := backoffOutageRun(t, rng.New(3).Split("backoff"))
	b := backoffOutageRun(t, rng.New(3).Split("backoff"))
	if a.RPCTimeouts == 0 || a.BackoffWaits == 0 {
		t.Fatalf("outage tripped %d timeouts / %d backoff waits, want both nonzero",
			a.RPCTimeouts, a.BackoffWaits)
	}
	if a.RPCTimeouts != b.RPCTimeouts || a.BackoffWaits != b.BackoffWaits || a.BackoffWait != b.BackoffWait {
		t.Fatalf("jittered backoff diverged across identical runs: %d/%d/%v vs %d/%d/%v",
			a.RPCTimeouts, a.BackoffWaits, a.BackoffWait,
			b.RPCTimeouts, b.BackoffWaits, b.BackoffWait)
	}
}

func TestBackoffCapBoundsRetrySpacing(t *testing.T) {
	// Fixed re-arms at the base timeout would fire once per watchdog
	// over the whole outage: 345 s / 20 s = 17 times. The doubling
	// schedule, capped at 8x the base, fires far fewer.
	fixed := uint64(outageDuration(false) / backoffTimeout)
	expo := backoffOutageRun(t, nil)
	if expo.RPCTimeouts >= fixed {
		t.Fatalf("exponential backoff fired %d vs %d fixed re-arms; backoff should reduce retries",
			expo.RPCTimeouts, fixed)
	}
	if expo.RPCTimeouts > 6 {
		t.Fatalf("exponential backoff fired %d times over a 345 s outage", expo.RPCTimeouts)
	}
	if expo.BackoffWaits == 0 {
		t.Fatal("no backed-off watchdog fired during the outage")
	}
}

// TestWatchdogCountsOnlyStalledStream runs a healthy stream to
// completion, then a second one on the same client into an OSS
// outage: the retry counters count the second stream's stalls alone,
// so a reused RPC record carries no watchdog or backoff state over
// from the RPC it last served.
func TestWatchdogCountsOnlyStalledStream(t *testing.T) {
	eng := sim.NewEngine()
	fs := Build(eng, TestNamespace(), rng.New(90))
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	client.RPCTimeout = backoffTimeout
	client.BackoffSrc = rng.New(3).Split("backoff")
	var file *File
	fs.CreateOn("app/f", []int{0}, func(f *File) { file = f })
	eng.Run()
	client.WriteStream(file, 16<<20, 1<<20, nil)
	eng.Run()
	if client.RPCTimeouts != 0 {
		t.Fatalf("healthy stream tripped %d watchdogs", client.RPCTimeouts)
	}
	if err := FailOSS(fs, 0, false, nil); err != nil {
		t.Fatal(err)
	}
	client.WriteStream(file, 4<<20, 1<<20, nil)
	eng.Run()
	if client.BytesWritten != 20<<20 {
		t.Fatalf("wrote %d bytes, want %d", client.BytesWritten, 20<<20)
	}
	// Four RPCs stall through the 345 s outage, and each one's watchdog
	// expires four times, after 20, 40, 80 and 160 s (the backed-off
	// three jittered by up to ±25%).
	if client.RPCTimeouts != 16 || client.RPCRetries != 16 ||
		client.BackoffWaits != 12 || client.BackoffWait != 951001438215 {
		t.Fatalf("timeouts %d, retries %d, backoff waits %d (%d ns); want 16, 16, 12 (951001438215 ns)",
			client.RPCTimeouts, client.RPCRetries, client.BackoffWaits, client.BackoffWait)
	}
}

func TestHealthyClientDrawsNoBackoffRandomness(t *testing.T) {
	// Stream isolation: a client that never stalls must not consume its
	// backoff stream, so twin sources stay in lockstep.
	used := rng.New(11).Split("backoff")
	twin := rng.New(11).Split("backoff")
	eng := sim.NewEngine()
	fs := Build(eng, TestNamespace(), rng.New(91))
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	client.RPCTimeout = 20 * sim.Second
	client.BackoffSrc = used
	var file *File
	fs.Create("app/f", 4, func(f *File) { file = f })
	eng.Run()
	client.WriteStream(file, 16<<20, 1<<20, nil)
	eng.Run()
	if client.RPCTimeouts != 0 {
		t.Fatalf("healthy write tripped %d watchdogs", client.RPCTimeouts)
	}
	if used.Float64() != twin.Float64() {
		t.Fatal("healthy client consumed backoff randomness")
	}
}

// --- OST read-path integrity surfacing (EIO vs repaired vs corrupt) ---

func TestOSTReadSurfacesRepairAndCorruption(t *testing.T) {
	eng := sim.NewEngine()
	fs := Build(eng, TestNamespace(), rng.New(92))
	ost := fs.OSTs[0]
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	var file *File
	fs.CreateOn("app/f", []int{0}, func(f *File) { file = f })
	eng.Run()
	// Streaming reads start at LBA 0; plant silent rot there.
	g := ost.Group()
	g.Disks()[g.ChunkMember(0, 0)].InjectError(0, disk.Silent)
	client.ReadStream(file, 1<<20, 1<<20, false, nil)
	eng.Run()
	if ost.CorruptReads == 0 {
		t.Fatalf("OST served %d corrupt reads, want the planted rot surfaced", ost.CorruptReads)
	}
	// A drive-reported URE at the same spot is verified and repaired
	// inline instead.
	eng2 := sim.NewEngine()
	fs2 := Build(eng2, TestNamespace(), rng.New(92))
	ost2 := fs2.OSTs[0]
	client2 := NewClient(0, topology.Coord{}, fs2, NullTransport{Eng: eng2})
	var file2 *File
	fs2.CreateOn("app/f", []int{0}, func(f *File) { file2 = f })
	eng2.Run()
	g2 := ost2.Group()
	g2.Disks()[g2.ChunkMember(0, 0)].InjectError(0, disk.URE)
	client2.ReadStream(file2, 1<<20, 1<<20, false, nil)
	eng2.Run()
	if ost2.RepairedReads == 0 || ost2.CorruptReads != 0 {
		t.Fatalf("URE under OST read: repaired=%d corrupt=%d, want inline repair",
			ost2.RepairedReads, ost2.CorruptReads)
	}
}
