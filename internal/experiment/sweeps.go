package experiment

import (
	"slices"
	"strings"

	"spiderfs/internal/chaos"
	"spiderfs/internal/purge"
	"spiderfs/internal/qa"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/sweep"
)

// Sweeps is every seed sweep: the studies whose paper claims are
// statistical shapes, not point samples. E3 slow-disk elimination (§V-A
// drive spread), E13 purge residency (§IV-C under stochastic
// production), the E18 chaos campaign (§IV-D availability over many
// fault schedules), and the E19 scenario at three scrub intervals: off
// (the exposure baseline), the default (which must drive undetected
// corrupt reads to zero), and a slow one that loses the race. Each
// replica is an independent simulation seeded from the sweep stream.
// `spidersim sweep`, `spidersim session` and cmd/spidersimd all read
// this one list.
func Sweeps() []sweep.Entry {
	return []sweep.Entry{
		{Label: "e3-slowdisk", Replicas: 16, Body: slowDiskReplica},
		{Label: "e13-purge", Replicas: 16, Body: purgeReplica},
		{Label: "e18-chaos", Replicas: 32, Body: chaosReplica},
		{Label: "e19-scrub-off", Replicas: 8, Body: scrubReplica(0)},
		{Label: "e19-scrub-default", Replicas: 8, Body: scrubReplica(DefaultScrubInterval)},
		{Label: "e19-scrub-slow", Replicas: 8, Body: scrubReplica(30 * sim.Minute)},
	}
}

// SelectSweeps returns, in Sweeps order, the entries any of names
// selects: every entry for "all", else those whose label is a name or
// starts with a name + "-", so "e19" selects all three scrub-interval
// sweeps. `spidersim sweep -exp` selects with it.
func SelectSweeps(names ...string) []sweep.Entry {
	var out []sweep.Entry
	for _, e := range Sweeps() {
		for _, n := range names {
			if n == "all" || e.Label == n || strings.HasPrefix(e.Label, n+"-") {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// SweepChoices lists the -exp names: each label's first word (before
// its first "-"), once, in Sweeps order, then "all".
func SweepChoices() string {
	var names []string
	for _, e := range Sweeps() {
		name, _, _ := strings.Cut(e.Label, "-")
		if !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	return strings.Join(append(names, "all"), "|")
}

// slowDiskReplica runs one E3 campaign: 16 groups, 16 MiB per group per
// round.
func slowDiskReplica(r *sweep.Rep) error {
	record(r, slowDiskMetrics(qa.SlowDiskCampaign(16, 16<<20, rng.New(r.Seed), r.Src.Split("elim"))))
	return nil
}

// purgeReplica runs one E13 residency campaign at a Poisson daily file
// count: each replica sees a different arrival schedule, and the merged
// report shows how tightly the policy bounds residency.
func purgeReplica(r *sweep.Rep) error {
	arrivals := r.Src.Split("production")
	var pois rng.Poisson
	record(r, purgeMetrics(purge.Residency(r.Seed, func() int { return pois.Draw(arrivals, e13FilesPerDay) })))
	return nil
}

// record feeds a study's metric list to a replica, in order.
func record(r *sweep.Rep, ms []sweep.Metric) {
	for _, m := range ms {
		r.Record(m.Name, m.Value)
	}
}

// chaosReplica runs one one-day small-center E18 campaign at the
// replica seed.
func chaosReplica(r *sweep.Rep) error {
	rep := chaos.Run(chaos.QuickConfig(r.Seed))
	r.Record("availability", rep.Availability)
	r.Record("ost_downtime_h", rep.OSTDowntime.Seconds()/3600)
	r.Record("disk_failures", float64(rep.DiskFailures))
	r.Record("oss_crashes", float64(rep.OSSCrashes))
	r.Record("routers_killed", float64(rep.RoutersKilled))
	r.Record("cascades", float64(rep.Cascades))
	r.Record("incidents", float64(rep.Incidents))
	r.Record("rpc_retries", float64(rep.RPCRetries))
	r.Record("probe_stalls", float64(rep.ProbeStalls))
	r.Record("mean_probe_mbps", rep.MeanProbeMBps)
	r.Record("min_probe_mbps", rep.MinProbeMBps)
	return nil
}

// scrubReplica returns the E19 body at one scrub pass interval (0 =
// scrubbing off).
func scrubReplica(scrubEvery sim.Time) sweep.Body {
	return func(r *sweep.Rep) error {
		res := RunScenario(r.Seed, scrubEvery)
		r.Record("reads", float64(res.Reads))
		r.Record("undetected_reads", float64(res.UndetectedReads))
		r.Record("repaired_chunks", float64(res.RepairedChunks))
		r.Record("scrub_repairs", float64(res.ScrubRepairs))
		r.Record("ures_detected", float64(res.UREsDetected))
		r.Record("mismatches", float64(res.Mismatches))
		r.Record("lost_stripes", float64(res.LostStripes))
		r.Record("rebuild_latent_hits", float64(res.RebuildHits))
		r.Record("rebuild_window_s", res.RebuildWindow.Seconds())
		r.Record("scrub_passes", float64(res.ScrubPasses))
		r.Record("mean_read_ms", res.MeanReadMs)
		r.Record("eio_reads", float64(res.EIOReads))
		return nil
	}
}
