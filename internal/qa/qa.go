// Package qa implements Spider's performance quality-assurance
// practices: the multi-round slow-disk elimination campaign of §V-A
// (benchmark every RAID group, bin by performance, inspect the slowest
// bin's drive latencies, replace outliers, repeat until the variance
// envelope is met).
package qa

import (
	"fmt"

	"spiderfs/internal/disk"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/stats"
	"spiderfs/internal/workload"
)

// spreadTarget is the acceptance envelope of the Spider II campaign:
// (mean-min)/mean across groups must fall at or below it. Spider II's
// contract started at 5% and was relaxed to 7.5% in production.
const spreadTarget = 0.05

// Round reports one benchmark/replace cycle.
type Round struct {
	Index    int
	MeanMBps float64
	Spread   float64 // (mean-min)/mean
	Replaced int
}

// Report summarizes a campaign.
type Report struct {
	Rounds        []Round
	TotalReplaced int
	Converged     bool
	// Aggregate bandwidth before and after (sum of group rates).
	BeforeMBps float64
	AfterMBps  float64
}

func (r Report) String() string {
	return fmt.Sprintf("slow-disk campaign: %d rounds, %d disks replaced, %.0f -> %.0f MB/s aggregate, converged=%v",
		len(r.Rounds), r.TotalReplaced, r.BeforeMBps, r.AfterMBps, r.Converged)
}

// The per-group benchmark: full-stripe (1 MiB) writes at queue depth 8.
const (
	benchRequestSize = 1 << 20
	benchQueueDepth  = 8
)

// benchGroups measures each group's sequential write bandwidth. Drive
// latency counters are reset first so the per-round inspection sees only
// this round's behaviour.
func benchGroups(eng *sim.Engine, groups []*raid.Group, benchBytes int64) []float64 {
	out := make([]float64, len(groups))
	// Warm-up: one untimed write per group aligns every drive's head at
	// the bench region, so round-to-round comparisons measure streaming
	// rate rather than the initial seek.
	for _, g := range groups {
		g.Write(0, benchRequestSize, nil)
	}
	eng.Run()
	for _, g := range groups {
		for _, d := range g.Disks() {
			d.ResetStats()
		}
	}
	for i, g := range groups {
		off := int64(benchRequestSize) // continue where the warm-up left the heads
		out[i] = workload.Drive(eng, func(n int64, done func()) {
			if off+n > g.Capacity() {
				off = 0
			}
			o := off
			off += n
			g.Write(o, n, done)
		}, workload.Loop{Depth: benchQueueDepth, Size: benchRequestSize, Budget: benchBytes}).MBps()
	}
	return out
}

// Groups are split into perfBins performance bins; the slowest
// inspectBins of them are inspected, and a drive whose mean command
// latency exceeds latencyFactor x the median of its group's drives is
// replaced.
const (
	perfBins      = 10
	inspectBins   = 3
	latencyFactor = 1.10
)

// replaceSlowDisks inspects the slowest bins' groups, replacing drives
// whose mean command latency is an outlier within their group. Returns
// the number of replacements.
func replaceSlowDisks(groups []*raid.Group, mbps []float64, src *rng.Source) int {
	bins := stats.QuantileBins(mbps, perfBins)
	var candidates []int
	for b := 0; b < min(inspectBins, len(bins.Members)); b++ {
		candidates = append(candidates, bins.Members[b]...)
	}
	replaced := 0
	for _, gi := range candidates {
		g := groups[gi]
		disks := g.Disks()
		lats := make([]float64, len(disks))
		for i, d := range disks {
			lats[i] = d.MeanLatency()
		}
		median := stats.Percentile(lats, 0.5)
		if median <= 0 {
			continue
		}
		for i, d := range disks {
			if lats[i] > latencyFactor*median {
				// Swap in a healthy drive from spares.
				h := disk.Nominal()
				h.SpeedFactor = src.TruncNormal(1.0, 0.015, 0.95, 1.05)
				d.SetHealth(h)
				d.ResetStats()
				replaced++
				_ = i
			}
		}
	}
	return replaced
}

func spreadOf(mbps []float64) (mean, spread float64) {
	var s stats.Summary
	for _, v := range mbps {
		s.Add(v)
	}
	if s.Mean == 0 {
		return 0, 0
	}
	return s.Mean, (s.Mean - s.Min) / s.Mean
}

// maxRounds bounds the campaign.
const maxRounds = 8

// RunElimination executes the campaign, writing benchBytes per group
// per round's measurement, and returns the report.
func RunElimination(eng *sim.Engine, groups []*raid.Group, benchBytes int64, src *rng.Source) Report {
	var rep Report
	for round := 0; round < maxRounds; round++ {
		mbps := benchGroups(eng, groups, benchBytes)
		mean, spread := spreadOf(mbps)
		r := Round{Index: round, MeanMBps: mean, Spread: spread}
		if round == 0 {
			rep.BeforeMBps = mean * float64(len(groups))
		}
		rep.AfterMBps = mean * float64(len(groups))
		if spread <= spreadTarget {
			rep.Rounds = append(rep.Rounds, r)
			rep.Converged = true
			return rep
		}
		r.Replaced = replaceSlowDisks(groups, mbps, src)
		rep.TotalReplaced += r.Replaced
		rep.Rounds = append(rep.Rounds, r)
		if r.Replaced == 0 {
			// Nothing left to swap in the slowest bin; declare done.
			rep.Converged = spread <= spreadTarget
			return rep
		}
	}
	return rep
}
