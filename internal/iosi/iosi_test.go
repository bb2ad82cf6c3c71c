package iosi

import (
	"math"
	"testing"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

// synthSeries builds a log with bursts of height high (bytes/s) and
// duration burstLen samples every period samples, over noise floor.
func synthSeries(interval sim.Time, samples int, period, burstLen int, high, noise float64, src *rng.Source) Series {
	s := Series{Interval: interval}
	for i := 0; i < samples; i++ {
		v := noise * src.Float64()
		if period > 0 && i%period < burstLen {
			v += high
		}
		s.Samples = append(s.Samples, v)
	}
	return s
}

func TestDetectBurstsCountsEpisodes(t *testing.T) {
	src := rng.New(1)
	s := synthSeries(sim.Second, 100, 20, 3, 100e9, 1e9, src)
	bursts := DetectBursts(s, 5)
	if len(bursts) != 5 {
		t.Fatalf("detected %d bursts, want 5", len(bursts))
	}
	for _, b := range bursts {
		if b.Duration != 3*sim.Second {
			t.Fatalf("burst duration %v, want 3s", b.Duration)
		}
		// Volume ~ 100 GB/s * 3 s.
		if b.Volume < 290e9 || b.Volume > 320e9 {
			t.Fatalf("burst volume %g", b.Volume)
		}
	}
}

func TestDetectBurstsEmptyAndFlat(t *testing.T) {
	if got := DetectBursts(Series{}, 3); got != nil {
		t.Fatal("empty series should have no bursts")
	}
	flat := Series{Interval: sim.Second, Samples: []float64{5, 5, 5, 5}}
	if got := DetectBursts(flat, 3); len(got) != 0 {
		t.Fatalf("flat series produced %d bursts", len(got))
	}
}

func TestExtractRunRecoversPeriod(t *testing.T) {
	src := rng.New(2)
	s := synthSeries(sim.Second, 200, 25, 4, 80e9, 2e9, src)
	sig := ExtractRun(s, 5)
	if sig.BurstsPerRun != 8 {
		t.Fatalf("bursts = %d, want 8", sig.BurstsPerRun)
	}
	if math.Abs(sig.Period.Seconds()-25) > 1 {
		t.Fatalf("period = %v, want 25s", sig.Period)
	}
	if math.Abs(sig.BurstDuration.Seconds()-4) > 1 {
		t.Fatalf("burst duration = %v, want 4s", sig.BurstDuration)
	}
}

func TestExtractCrossRunCancelsNoise(t *testing.T) {
	src := rng.New(3)
	runs := make([]Series, 5)
	for i := range runs {
		// Same app (period 30, burst 5, 60 GB/s) under varying noise.
		runs[i] = synthSeries(sim.Second, 300, 30, 5, 60e9, float64(i+1)*3e9, src.Split("run"))
	}
	sig := Extract(runs, 5)
	if math.Abs(sig.Period.Seconds()-30) > 2 {
		t.Fatalf("period = %v", sig.Period)
	}
	if sig.Confidence < 0.7 {
		t.Fatalf("confidence = %f, want high for consistent runs", sig.Confidence)
	}
	want := 60e9 * 5
	if math.Abs(sig.BurstVolume-want)/want > 0.15 {
		t.Fatalf("burst volume %g, want ~%g", sig.BurstVolume, want)
	}
}

func TestExtractEmptyRuns(t *testing.T) {
	if sig := Extract(nil, 3); sig.BurstsPerRun != 0 {
		t.Fatal("no runs should give empty signature")
	}
	flat := Series{Interval: sim.Second, Samples: make([]float64, 50)}
	if sig := Extract([]Series{flat}, 3); sig.Confidence != 0 {
		t.Fatalf("flat runs gave confidence %f", sig.Confidence)
	}
}

func TestSamplerCapturesCheckpointBursts(t *testing.T) {
	// End-to-end: run a periodically checkpointing app on a live
	// namespace, sample server-side throughput, and recover the period.
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(5))
	client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	var file *lustre.File
	fs.Create("app/ckpt", 4, func(f *lustre.File) { file = f })
	eng.Run()

	sampler := NewSampler(fs)
	// App: burst of 64 MiB every 2 simulated seconds, 8 checkpoints.
	var burst func(n int)
	burst = func(n int) {
		if n == 0 {
			return
		}
		client.WriteStream(file, 64<<20, 1<<20, func(int64) {
			eng.After(2*sim.Second, func() { burst(n - 1) })
		})
	}
	burst(8)
	// The sampler keeps a tick pending, so drive the clock explicitly:
	// 8 checkpoints at ~2 s spacing finish well inside 30 s.
	eng.RunUntil(30 * sim.Second)
	series := sampler.Stop()
	eng.Run()
	sig := ExtractRun(series, 4)
	if sig.BurstsPerRun < 6 || sig.BurstsPerRun > 10 {
		t.Fatalf("detected %d bursts of ~8 checkpoints", sig.BurstsPerRun)
	}
	if sig.Period < 1500*sim.Millisecond || sig.Period > 3*sim.Second {
		t.Fatalf("period = %v, want ~2s", sig.Period)
	}
	// Burst volume should be in the vicinity of 64 MiB.
	if sig.BurstVolume < 30e6 || sig.BurstVolume > 100e6 {
		t.Fatalf("burst volume = %g, want ~67e6", sig.BurstVolume)
	}
}
