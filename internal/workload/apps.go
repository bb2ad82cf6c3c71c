package workload

import (
	"fmt"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/stats"
	"spiderfs/internal/topology"
)

// CheckpointConfig models a large-scale simulation's defensive I/O: all
// ranks dump a fraction of node memory to file-per-process outputs, the
// workload Spider II's 1 TB/s requirement was engineered for (75% of
// Titan's 600 TB in 6 minutes).
type CheckpointConfig struct {
	Writers      int
	BytesPerRank int64
}

// CheckpointResult reports one checkpoint.
type CheckpointResult struct {
	Duration     sim.Time
	BytesMoved   int64
	AggregateBps float64
}

// RunCheckpoint executes one checkpoint and returns its duration. Each
// rank writes its own single-stripe file under ckpt/ in 1 MiB transfers.
func RunCheckpoint(fs *lustre.FS, cfg CheckpointConfig) CheckpointResult {
	res := RunIOR(fs, IORConfig{
		Clients:      cfg.Writers,
		TransferSize: 1 << 20,
		BlockSize:    cfg.BytesPerRank,
		Dir:          "ckpt",
	})
	return CheckpointResult{Duration: res.Duration, BytesMoved: res.BytesMoved, AggregateBps: res.AggregateBps}
}

// AnalyticsConfig models the read-heavy, latency-constrained
// visualization/analysis workloads that share the data-centric file
// system with checkpoints (§II).
type AnalyticsConfig struct {
	Readers  int
	Requests int // per reader
}

// analyticsRequestSize is the size of one latency-bound analytics read.
const analyticsRequestSize = 64 << 10

// AnalyticsResult reports latency statistics (milliseconds).
type AnalyticsResult struct {
	Latency   stats.Summary
	P95Millis float64
	Duration  sim.Time
}

// RunAnalytics pre-creates one single-stripe dataset per reader under
// viz/, then issues random reads one at a time (latency-bound, not
// bandwidth-bound), recording per-request latency.
func RunAnalytics(fs *lustre.FS, cfg AnalyticsConfig) AnalyticsResult {
	eng := fs.Engine()
	files := make([]*lustre.File, cfg.Readers)
	clients := make([]*lustre.Client, cfg.Readers)
	for i := 0; i < cfg.Readers; i++ {
		i := i
		clients[i] = lustre.NewClient(i, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
		fs.Create(fmt.Sprintf("viz/set%05d", i), 1, func(f *lustre.File) { files[i] = f })
	}
	eng.Run()
	for i, c := range clients {
		c.WriteStream(files[i], 64<<20, 1<<20, nil)
	}
	eng.Run()

	var res AnalyticsResult
	var lats []float64
	start := eng.Now()
	for i := 0; i < cfg.Readers; i++ {
		i := i
		var next func(remaining int)
		next = func(remaining int) {
			if remaining == 0 {
				return
			}
			t0 := eng.Now()
			clients[i].ReadStream(files[i], analyticsRequestSize, analyticsRequestSize, true, func(int64) {
				ms := (eng.Now() - t0).Millis()
				res.Latency.Add(ms)
				lats = append(lats, ms)
				next(remaining - 1)
			})
		}
		next(cfg.Requests)
	}
	eng.Run()
	res.Duration = eng.Now() - start
	res.P95Millis = stats.Percentile(lats, 0.95)
	return res
}

// MixedConfig generates the center-wide mixed workload whose measured
// characteristics §II reports: 60% write / 40% read requests, bimodal
// sizes (small <=16 KiB metadata-ish I/O and large >=1 MiB streaming
// multiples), and Pareto-tailed inter-arrival times.
type MixedConfig struct {
	Duration      sim.Time
	MeanArrival   sim.Time // mean request inter-arrival
	LargeMaxUnits int      // large requests are 1 to LargeMaxUnits mixedLargeUnits
}

// DefaultMixed returns the §II calibration.
func DefaultMixed() MixedConfig {
	return MixedConfig{
		Duration:      30 * sim.Second,
		MeanArrival:   2 * sim.Millisecond,
		LargeMaxUnits: 8,
	}
}

// The §II calibration's fixed shape.
const (
	mixedParetoAlpha = 1.4      // tail index of the inter-arrival distribution
	mixedWriteFrac   = 0.60     // 0.6 in the Spider I study
	mixedSmallFrac   = 0.45     // fraction of requests that are small
	mixedSmallMax    = 16 << 10 // 16 KiB
	mixedLargeUnit   = 1 << 20  // 1 MiB; large requests are multiples of it
	mixedStreams     = 8        // concurrent independent request streams
)

// MixedTrace records what the generator produced, for characterization.
type MixedTrace struct {
	Writes, Reads uint64
	Sizes         []float64 // bytes
	InterArrivals []float64 // seconds
	BytesWritten  int64
	BytesRead     int64
}

// WriteFraction returns the measured write fraction of requests.
func (tr *MixedTrace) WriteFraction() float64 {
	total := tr.Writes + tr.Reads
	if total == 0 {
		return 0
	}
	return float64(tr.Writes) / float64(total)
}

// RunMixed drives the mixed workload against fs and returns the trace.
func RunMixed(fs *lustre.FS, cfg MixedConfig, src *rng.Source) *MixedTrace {
	eng := fs.Engine()
	tr := &MixedTrace{}
	tr.Sizes = make([]float64, 0, 1024)
	end := eng.Now() + cfg.Duration

	// One shared file per stream.
	files := make([]*lustre.File, mixedStreams)
	clients := make([]*lustre.Client, mixedStreams)
	for i := 0; i < mixedStreams; i++ {
		i := i
		clients[i] = lustre.NewClient(i, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
		fs.Create(fmt.Sprintf("mixed/stream%03d", i), 1, func(f *lustre.File) { files[i] = f })
	}
	eng.Run()
	for i := range files {
		clients[i].WriteStream(files[i], 8<<20, 1<<20, nil) // seed data for reads
	}
	eng.Run()

	// The Pareto xm that yields the requested mean for tail alpha:
	// mean = alpha*xm/(alpha-1)  =>  xm = mean*(alpha-1)/alpha. alpha is
	// a float64 variable so alpha-1 rounds at run time, not exactly as
	// a constant expression would.
	alpha := float64(mixedParetoAlpha)
	xm := cfg.MeanArrival.Seconds() * (alpha - 1) / alpha

	var last sim.Time = -1
	var schedule func(stream int)
	schedule = func(stream int) {
		gap := sim.FromSeconds(src.Pareto(alpha, xm))
		eng.After(gap, func() {
			if eng.Now() >= end {
				return
			}
			if last >= 0 {
				tr.InterArrivals = append(tr.InterArrivals, (eng.Now() - last).Seconds())
			}
			last = eng.Now()
			var size int64
			if src.Bool(mixedSmallFrac) {
				size = 512 + src.Int63n(mixedSmallMax-512)
			} else {
				size = mixedLargeUnit * int64(1+src.Intn(cfg.LargeMaxUnits))
			}
			tr.Sizes = append(tr.Sizes, float64(size))
			if src.Bool(mixedWriteFrac) {
				tr.Writes++
				tr.BytesWritten += size
				clients[stream].WriteStream(files[stream], size, minI64(size, 1<<20), nil)
			} else {
				tr.Reads++
				tr.BytesRead += size
				clients[stream].ReadStream(files[stream], size, minI64(size, 1<<20), true, nil)
			}
			schedule(stream)
		})
	}
	for i := 0; i < mixedStreams; i++ {
		schedule(i)
	}
	eng.Run()
	return tr
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
