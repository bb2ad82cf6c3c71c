package main

// layerRun is what a traced run hands the per-layer table: the traced
// and the untraced measurement of the same inputs, the traced run's
// spans, and the probe ladder.
type layerRun struct {
	traced, untraced *result
	tr               *tracer
	probes           []metric
}

// stat returns a counter or gauge of the traced run.
func (l *layerRun) stat(name string) float64 {
	return find(l.traced.out.counters, name) + find(l.traced.out.gauges, name)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetric is one per-layer metric: how it is measured, and (in
// README.md) which end-to-end metric it should move. A workload that
// does not exercise a layer reads 0 there.
type layerMetric struct {
	name, unit string
	value      func(l *layerRun) float64
}

func stat(name string) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return l.stat(name) }
}

func probe(name string) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return find(l.probes, name) }
}

// spanTotal returns the summed duration of the named spans, in units
// of scale ns.
func spanTotal(span string, scale float64) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return l.tr.total(span) / scale }
}

func spanQuantileMs(span string, q float64) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return quantile(l.tr.durations(span), q) / 1e6 }
}

// layerMetrics lists every per-layer metric in print order. BENCHMARK.json
// lists the same names and units.
var layerMetrics = []layerMetric{
	{"sim.events", "count", stat("sim.events")},
	{"sim.host_ns_per_event", "ns", func(l *layerRun) float64 {
		return ratio(l.untraced.wallS*1e9, l.stat("sim.events"))
	}},
	{"sim.server_ns_per_job.q1", "ns", probe("sim.server_ns_per_job.q1")},
	{"sim.server_ns_per_job.q1024", "ns", probe("sim.server_ns_per_job.q1024")},
	{"sim.engine_ns_per_event", "ns", probe("sim.engine_ns_per_event")},
	{"sim.engine_allocs_per_event", "count", probe("sim.engine_allocs_per_event")},

	{"disk.ops", "count", stat("disk.ops")},
	{"disk.mb", "MB", stat("disk.mb")},
	{"disk.util", "fraction", stat("disk.util")},
	{"disk.ns_per_op", "ns", probe("disk.ns_per_op")},

	{"raid.full_stripe_writes", "count", stat("raid.full_stripe_writes")},
	{"raid.partial_writes", "count", stat("raid.partial_writes")},
	{"raid.degraded_reads", "count", stat("raid.degraded_reads")},
	{"raid.ns_per_mb.full_stripe", "ns", probe("raid.ns_per_mb.full_stripe")},
	{"raid.ns_per_op.rmw", "ns", probe("raid.ns_per_op.rmw")},

	{"lustre.build_ms", "ms", spanTotal("lustre.build", 1e6)},
	{"lustre.ctrl_rpcs", "count", stat("lustre.ctrl_rpcs")},
	{"lustre.ctrl_cache_stalls", "count", stat("lustre.ctrl_cache_stalls")},
	{"lustre.ctrl_util", "fraction", stat("lustre.ctrl_util")},
	{"lustre.oss_rpcs", "count", stat("lustre.oss_rpcs")},
	{"lustre.oss_util", "fraction", stat("lustre.oss_util")},
	{"lustre.ost_journal_commits", "count", stat("lustre.ost_journal_commits")},
	{"lustre.ost_fragmented_flushes", "count", stat("lustre.ost_fragmented_flushes")},
	{"lustre.client_rpcs", "count", stat("lustre.client_rpcs")},
	{"lustre.client_rpc_retries", "count", stat("lustre.client_rpc_retries")},
	{"lustre.ctrl_ns_per_rpc", "ns", probe("lustre.ctrl_ns_per_rpc")},
	{"lustre.ctrl_allocs_per_rpc", "count", probe("lustre.ctrl_allocs_per_rpc")},
	{"lustre.ost_ns_per_mb", "ns", probe("lustre.ost_ns_per_mb")},
	{"lustre.client_ns_per_mb", "ns", probe("lustre.client_ns_per_mb")},

	{"netsim.fabric_build_ms", "ms", spanTotal("netsim.build", 1e6)},
	{"netsim.start_flow_us", "us", func(l *layerRun) float64 {
		return ratio(l.tr.total("netsim.start")/1e3, l.stat("netsim.flows_started"))
	}},
	{"netsim.drain_ms_per_wave", "ms", func(l *layerRun) float64 {
		return ratio(l.tr.total("netsim.drain")/1e6, float64(len(l.tr.durations("netsim.drain"))))
	}},
	{"netsim.flows_completed", "count", stat("netsim.flows_completed")},
	{"netsim.gb_delivered", "GB", stat("netsim.gb_delivered")},
	{"netsim.stalled_sends", "count", stat("netsim.stalled_sends")},
	{"netsim.dropped_flows", "count", stat("netsim.dropped_flows")},
	{"netsim.links", "count", stat("netsim.links")},
	{"netsim.churn_ns_per_flow", "ns", probe("netsim.churn_ns_per_flow")},
	{"netsim.churn_allocs_per_flow", "count", probe("netsim.churn_allocs_per_flow")},

	{"center.build_ms", "ms", spanTotal("center.build", 1e6)},

	{"workload.ior_s", "s", spanTotal("workload.ior", 1e9)},
	{"workload.e1_s", "s", spanTotal("workload.e1", 1e9)},
	{"workload.e5_s", "s", spanTotal("workload.e5", 1e9)},
	{"workload.s3d_s", "s", spanTotal("workload.s3d", 1e9)},
	{"workload.paper_err_pct", "%", stat("workload.paper_err_pct")},

	{"chaos.campaign_s.funded", "s", spanTotal("chaos.funded", 1e9)},
	{"chaos.campaign_s.ablated", "s", spanTotal("chaos.ablated", 1e9)},
	{"chaos.incidents", "count", stat("chaos.incidents")},
	{"chaos.rebuilds", "count", stat("chaos.rebuilds")},
	{"chaos.probes", "count", stat("chaos.probes")},
	{"integrity.scrub_passes", "count", stat("integrity.scrub_passes")},
	{"integrity.scrubbed_stripes", "count", stat("integrity.scrubbed_stripes")},
	{"ledger.entries", "count", stat("ledger.entries")},
	{"ledger.anchors", "count", stat("ledger.anchors")},
	{"ledger.append_ns", "ns", probe("ledger.append_ns")},

	{"serve.session_p50_ms", "ms", spanQuantileMs("serve.session", 0.50)},
	{"serve.session_p99_ms", "ms", spanQuantileMs("serve.session", 0.99)},
	{"serve.submit_ms", "ms", spanQuantileMs("serve.submit", 0.50)},
	{"serve.stream_ms", "ms", spanQuantileMs("serve.stream", 0.50)},
	{"serve.report_ms", "ms", spanQuantileMs("serve.report", 0.50)},
	{"serve.queue_ms", "ms", stat("serve.queue_ms")},
	{"serve.run_ms.warm", "ms", stat("serve.run_ms.warm")},
	{"serve.run_ms.cold", "ms", stat("serve.run_ms.cold")},
	{"serve.run_ms.cache", "ms", stat("serve.run_ms.cache")},
	{"serve.cache_hit_rate", "fraction", stat("serve.cache_hit_rate")},
	{"serve.pool_reuses", "count", stat("serve.pool_reuses")},
	{"serve.pool_builds", "count", stat("serve.pool_builds")},
	{"serve.rejected", "count", stat("serve.rejected")},
	{"serve.failed", "count", stat("serve.failed")},

	{"trace_overhead_pct", "%", func(l *layerRun) float64 {
		return (ratio(l.traced.wallS, l.untraced.wallS) - 1) * 100
	}},
}

// traced measures the workload untraced and then traced, checks that
// tracing left the simulated results alone, runs the probe ladder, and
// returns the traced result, the per-layer metrics and the spans.
func traced(w workload, o options) (*result, []metric, *tracer, error) {
	untraced, err := measure(w, o, nil, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	tr := newTracer()
	r, err := measure(w, o, tr, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	r.out.problems = append(r.out.problems, untraced.out.problems...)
	// The fingerprint folds every counter; the loop names the ones that
	// moved.
	if got, want := r.out.fingerprint(), untraced.out.fingerprint(); got != want {
		r.out.problem("observer effect: the traced run's fingerprint %s differs from the untraced %s", got, want)
		for _, c := range r.out.counters {
			if v := find(untraced.out.counters, c.name); v != c.value {
				r.out.problem("observer effect: %s is %g traced, %g untraced", c.name, c.value, v)
			}
		}
	}
	l := &layerRun{traced: r, untraced: untraced, tr: tr, probes: probes()}
	ms := make([]metric, len(layerMetrics))
	for i, m := range layerMetrics {
		ms[i] = metric{m.name, m.unit, m.value(l)}
	}
	return r, ms, tr, nil
}
