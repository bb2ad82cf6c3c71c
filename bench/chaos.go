package main

import (
	"spiderfs/internal/center"
	"spiderfs/internal/chaos"
	"spiderfs/internal/netsim"
	"spiderfs/internal/sim"
)

// chaosWeek is the work of `spidersim chaos -full`: the 7-day full-scale
// campaign over both namespaces, run with the funded resilience features
// armed and again ablated, with the engine's event-trace audit on. The
// calibrated work is the 168-hour window.
var chaosWeek = workload{name: "chaos-week", setup: setupChaos}

// chaosSeeds is how many campaign seeds the workload draws from: the
// campaign seed is the run's seed modulo chaosSeeds. Seeds 0-63 have
// each been run through both 7-day campaigns to the end. The campaign
// code has a seed-dependent crash (README.md), so an arbitrary seed
// could end a run without a result.
const chaosSeeds = 64

type chaosJob struct{ cfg chaos.Config }

// setupChaos builds the campaign's center once. chaos.Run builds its own
// center inside the timed phase; this separate build is what set-up
// time measures, so work moved into center construction shows there.
func setupChaos(o options, tr *tracer) (job, error) {
	cfg := chaos.DefaultConfig(o.seed % chaosSeeds)
	cfg.Duration = sim.Time(o.scaled(7*24)) * sim.Hour
	cfg.TraceEvents = true
	sp := tr.begin("center.build", -1, -1)
	_ = center.New(center.Config{
		Scale: cfg.Scale, Namespaces: cfg.Namespaces, Seed: cfg.Seed,
		Small: cfg.Small, UseFabric: true, RouteMode: netsim.RouteFGR,
	})
	tr.end(sp)
	return &chaosJob{cfg: cfg}, nil
}

func (j *chaosJob) run(tr *tracer) *outcome {
	out := newOutcome()
	campaigns := []struct {
		span string
		cfg  chaos.Config
	}{{"chaos.funded", j.cfg}, {"chaos.ablated", j.cfg.Ablated()}}
	reps := make([]*chaos.Report, len(campaigns))
	for i, c := range campaigns {
		out.attempted++
		sp := tr.begin(c.span, -1, i)
		reps[i] = chaos.Run(c.cfg)
		tr.end(sp)
		if reps[i].LedgerDrops > 0 {
			out.failed++
		}
		out.foldWord(reps[i].Fingerprint())
	}

	var events uint64
	var incidents, rebuilds, probes, passes, entries, anchors int
	var scrubbed int64
	var stalled, dropped uint64
	for _, r := range reps {
		events += r.TraceEvents
		incidents += r.Incidents
		rebuilds += r.Rebuilds
		probes += r.Probes
		passes += r.ScrubPasses
		scrubbed += r.ScrubbedStripes
		entries += r.LedgerEntries
		anchors += r.LedgerAnchors
		stalled += r.StalledSends
		dropped += r.DroppedFlows
	}
	out.counter("sim.events", float64(events))
	out.counter("netsim.stalled_sends", float64(stalled))
	out.counter("netsim.dropped_flows", float64(dropped))
	out.counter("chaos.incidents", float64(incidents))
	out.counter("chaos.rebuilds", float64(rebuilds))
	out.counter("chaos.probes", float64(probes))
	out.counter("integrity.scrub_passes", float64(passes))
	out.counter("integrity.scrubbed_stripes", float64(scrubbed))
	out.counter("ledger.entries", float64(entries))
	out.counter("ledger.anchors", float64(anchors))

	// Every fault process draws from its own split of the seed, so the
	// funded and the ablated campaign must suffer the same faults.
	f, a := reps[0], reps[1]
	if f.DiskFailures != a.DiskFailures || f.OSSCrashes+f.SkippedFaults != a.OSSCrashes+a.SkippedFaults ||
		f.RouterBursts != a.RouterBursts || f.CableDegradations != a.CableDegradations ||
		f.MDSOutages != a.MDSOutages || f.CorruptionStorms != a.CorruptionStorms {
		out.problem("funded and ablated campaigns saw different fault schedules")
	}
	return out
}

func (j *chaosJob) verify(*outcome) {}

func (j *chaosJob) close() {}
