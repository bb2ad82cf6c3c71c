// Package iosi implements the I/O Signature Identifier of §VI-B: it
// characterizes per-application I/O behaviour from server-side
// throughput logs — no client tracing, no extra load on the storage
// system — by detecting bursts, recovering the burst period, and
// intersecting the pattern across multiple runs of the same
// application.
package iosi

import (
	"math"
	"sort"

	"spiderfs/internal/lustre"
	"spiderfs/internal/sim"
	"spiderfs/internal/stats"
)

// Series is a server-side throughput log: bytes/second sampled at a
// fixed interval.
type Series struct {
	Interval sim.Time
	Samples  []float64
}

// sampleInterval is the Sampler's logging period: tens of samples per
// checkpoint period of a few seconds, so burst edges resolve to a tenth
// of a second.
const sampleInterval = 100 * sim.Millisecond

// Sampler collects a Series from a live namespace by sampling the delta
// of bytes written to all OSTs every sampleInterval — exactly what the
// DDN controller pollers gave OLCF.
type Sampler struct {
	fs      *lustre.FS
	series  Series
	last    int64
	stop    bool
	pending sim.Event
}

// NewSampler starts sampling immediately and runs until Stop. The
// sampler keeps one event pending, so call Stop before expecting the
// engine's queue to drain.
func NewSampler(fs *lustre.FS) *Sampler {
	s := &Sampler{fs: fs, series: Series{Interval: sampleInterval}}
	s.last = s.total()
	s.schedule()
	return s
}

func (s *Sampler) total() int64 {
	var t int64
	for _, o := range s.fs.OSTs {
		t += o.BytesWritten
	}
	return t
}

func (s *Sampler) schedule() {
	s.pending = s.fs.Engine().After(sampleInterval, func() {
		if s.stop {
			return
		}
		cur := s.total()
		s.series.Samples = append(s.series.Samples, float64(cur-s.last)/sampleInterval.Seconds())
		s.last = cur
		s.schedule()
	})
}

// Stop ends sampling, cancels the pending tick, and returns the
// collected series.
func (s *Sampler) Stop() Series {
	s.stop = true
	s.pending.Cancel()
	return s.series
}

// Burst is one contiguous above-threshold episode in a log.
type Burst struct {
	Start    sim.Time
	Duration sim.Time
	Volume   float64 // bytes
}

// DetectBursts finds episodes where throughput exceeds
// median + k*spread (a robust threshold; the noisy floor of a shared
// file system makes a fixed threshold useless).
func DetectBursts(s Series, k float64) []Burst {
	if len(s.Samples) == 0 {
		return nil
	}
	sorted := append([]float64(nil), s.Samples...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	// Median absolute deviation as the spread estimate.
	devs := make([]float64, len(sorted))
	for i, v := range sorted {
		devs[i] = math.Abs(v - median)
	}
	sort.Float64s(devs)
	mad := devs[len(devs)/2]
	threshold := median + k*mad
	if mad == 0 {
		threshold = median * 1.5
	}

	var bursts []Burst
	inBurst := false
	var cur Burst
	for i, v := range s.Samples {
		t := sim.Time(i) * s.Interval
		if v > threshold {
			if !inBurst {
				inBurst = true
				cur = Burst{Start: t}
			}
			cur.Duration += s.Interval
			cur.Volume += v * s.Interval.Seconds()
		} else if inBurst {
			inBurst = false
			bursts = append(bursts, cur)
		}
	}
	if inBurst {
		bursts = append(bursts, cur)
	}
	return bursts
}

// Signature is an application's extracted I/O fingerprint.
type Signature struct {
	Period        sim.Time // burst spacing (0 if aperiodic)
	BurstVolume   float64  // median bytes per burst
	BurstDuration sim.Time // median burst length
	BurstsPerRun  int
	Confidence    float64 // cross-run agreement in [0, 1]
}

// ExtractRun summarizes one run's log.
func ExtractRun(s Series, k float64) Signature {
	bursts := DetectBursts(s, k)
	sig := Signature{BurstsPerRun: len(bursts)}
	if len(bursts) == 0 {
		return sig
	}
	vols := make([]float64, len(bursts))
	durs := make([]float64, len(bursts))
	for i, b := range bursts {
		vols[i] = b.Volume
		durs[i] = b.Duration.Seconds()
	}
	sig.BurstVolume = stats.Percentile(vols, 0.5)
	sig.BurstDuration = sim.FromSeconds(stats.Percentile(durs, 0.5))
	if len(bursts) >= 2 {
		gaps := make([]float64, 0, len(bursts)-1)
		for i := 1; i < len(bursts); i++ {
			gaps = append(gaps, (bursts[i].Start - bursts[i-1].Start).Seconds())
		}
		sig.Period = sim.FromSeconds(stats.Percentile(gaps, 0.5))
	}
	return sig
}

// Extract intersects multiple runs of the same application: the common
// pattern across runs is the application's signature; run-specific noise
// cancels. Confidence reflects how tightly the runs agree.
func Extract(runs []Series, k float64) Signature {
	if len(runs) == 0 {
		return Signature{}
	}
	sigs := make([]Signature, len(runs))
	periods := make([]float64, 0, len(runs))
	vols := make([]float64, 0, len(runs))
	durs := make([]float64, 0, len(runs))
	counts := make([]float64, 0, len(runs))
	for i, r := range runs {
		sigs[i] = ExtractRun(r, k)
		if sigs[i].BurstsPerRun > 0 {
			periods = append(periods, sigs[i].Period.Seconds())
			vols = append(vols, sigs[i].BurstVolume)
			durs = append(durs, sigs[i].BurstDuration.Seconds())
			counts = append(counts, float64(sigs[i].BurstsPerRun))
		}
	}
	if len(vols) == 0 {
		return Signature{}
	}
	out := Signature{
		Period:        sim.FromSeconds(stats.Percentile(periods, 0.5)),
		BurstVolume:   stats.Percentile(vols, 0.5),
		BurstDuration: sim.FromSeconds(stats.Percentile(durs, 0.5)),
		BurstsPerRun:  int(stats.Percentile(counts, 0.5) + 0.5),
	}
	// Confidence: 1 - normalized spread of per-run burst volumes.
	var vs stats.Summary
	for _, v := range vols {
		vs.Add(v)
	}
	cov := vs.CoV()
	conf := 1 - cov
	if conf < 0 {
		conf = 0
	}
	out.Confidence = conf * float64(len(vols)) / float64(len(runs))
	return out
}
