package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"spiderfs/internal/chaos"
	"spiderfs/internal/ledger"
	"spiderfs/internal/netsim"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/sweep"
	"spiderfs/internal/topology"
)

// instance is one warm engine/fabric pair. The service reuses instances
// across workload sessions through the Reset seams instead of paying
// the fabric build (68,440 links at full scale) per session.
type instance struct {
	eng  *sim.Engine
	fab  *netsim.Fabric
	full bool
}

// buildInstance constructs a cold engine/fabric pair. The small shape
// is the small center's (topology.MiniTitan, 16 OSSes); full mirrors
// the production deployment the Spider II congestion benchmark drives
// (Titan torus, 110 modules, 288 OSSes).
func buildInstance(full bool) *instance {
	eng := sim.NewEngine()
	cfg := netsim.Spider2Fabric()
	var pl topology.Placement
	nOSS := 16
	if full {
		pl = topology.PlaceRouters(topology.TitanCabinets(), cfg.Torus, 110, 9)
		nOSS = 288
	} else {
		cfg.Torus, pl = topology.MiniTitan()
	}
	return &instance{eng: eng, fab: netsim.NewFabric(eng, cfg, pl, nOSS), full: full}
}

// RunSolo executes one normalized spec on fresh state — the one-shot
// CLI path (`spidersim session`) and the reference the service's
// pooled results must match bit for bit. catalog supplies the sweep
// entries "sweep"-kind specs may name; nil is fine for the other kinds.
func RunSolo(spec Spec, catalog []sweep.Entry) (*Report, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case "workload":
		inst := buildInstance(spec.Full)
		return runWorkload(inst.eng, inst.fab, spec, spec.Key(), nil), nil
	case "chaos":
		return runChaos(spec), nil
	default:
		return runSweepEntry(spec, catalog)
	}
}

// runWorkload drives the session's congestion waves on the given
// engine/fabric — cold or pooled, the code path is identical, which is
// what makes warm reuse fingerprint-safe. All randomness comes from a
// named split of the spec seed; the engine trace plus the fabric's
// outcome counters form the fingerprint. key is spec.Key(), which the
// ledger entries and the report carry.
func runWorkload(eng *sim.Engine, fab *netsim.Fabric, spec Spec, key string, note func(string)) *Report {
	th := sim.NewTraceHash()
	eng.SetTrace(th.Observe)
	src := rng.New(spec.Seed).Split("serve/workload")
	tor := fab.Cfg.Torus
	nodes, nOSS := tor.Nodes(), fab.NumOSS()
	// The session ledger records one milestone per drained wave at
	// simulated time, then anchors each as its own Merkle batch — so a
	// pooled replay of the same spec yields byte-identical roots (the
	// engine clock resets with the instance). Appends at the monotone
	// engine clock on an open ledger cannot fail, so the error is
	// discarded; the ledger never perturbs the run.
	ops := ledger.New(ledger.Config{})
	for w := 0; w < spec.Waves; w++ {
		for i := 0; i < spec.Flows; i++ {
			c := tor.CoordOf(src.Intn(nodes))
			fab.StartClientFlow(c, src.Intn(nOSS), netsim.RouteFGR, spec.Bytes, src, nil)
		}
		eng.Run()
		_ = ops.Append(eng.Now(), key, "workload",
			fmt.Sprintf("wave-%d-drained", w+1),
			fmt.Sprintf("%d flows, %d total events fired", spec.Flows, eng.Fired()))
		ops.Seal()
		if note != nil {
			note(fmt.Sprintf("wave %d/%d drained", w+1, spec.Waves))
		}
	}
	ops.Close()
	eng.SetTrace(nil)

	// The fingerprint is FNV-1a over the outcome words in little-endian
	// order, as the sweep and chaos fingerprints are.
	outcome := [...]uint64{th.Sum(), eng.Fired(), fab.Net.FlowsCompleted,
		math.Float64bits(fab.Net.BytesDelivered), fab.StalledSends, fab.DroppedFlows}
	words := make([]byte, 0, 8*len(outcome))
	for _, v := range outcome {
		words = binary.LittleEndian.AppendUint64(words, v)
	}
	fp := fnv.New64a()
	fp.Write(words)
	return &Report{
		Kind: spec.Kind, Key: key, Seed: spec.Seed,
		Fingerprint: fmt.Sprintf("%016x", fp.Sum64()),
		Metrics: []Metric{
			{Name: "events", Value: float64(eng.Fired())},
			{Name: "flows_completed", Value: float64(fab.Net.FlowsCompleted)},
			{Name: "bytes_delivered", Value: fab.Net.BytesDelivered},
			{Name: "stalled_sends", Value: float64(fab.StalledSends)},
			{Name: "dropped_flows", Value: float64(fab.DroppedFlows)},
		},
		Ledger: ops.Export(),
	}
}

// runChaos replays the chaos campaign exactly as `spidersim chaos`
// configures it: the quick 1-day small center, or the 7-day full-scale
// campaign with Full, with an optional day-count override.
func runChaos(spec Spec) *Report {
	rep := chaos.Run(chaos.CampaignConfig(spec.Seed, spec.Full, spec.Days))
	return &Report{
		Kind: spec.Kind, Key: spec.Key(), Seed: spec.Seed,
		Fingerprint: fmt.Sprintf("%016x", rep.Fingerprint()),
		Metrics: []Metric{
			{Name: "availability", Value: rep.Availability},
			{Name: "ost_downtime_s", Value: rep.OSTDowntime.Seconds()},
			{Name: "stalled_sends", Value: float64(rep.StalledSends)},
			{Name: "dropped_flows", Value: float64(rep.DroppedFlows)},
			{Name: "incidents", Value: float64(rep.Incidents)},
		},
		Ledger: rep.Ops,
	}
}

// runSweepEntry runs one catalog sweep through the deterministic
// parallel replica runner at the spec's seed. The catalog supplies the
// body and the default replica count; the spec may scale the latter.
func runSweepEntry(spec Spec, catalog []sweep.Entry) (*Report, error) {
	e, err := catalogEntry(catalog, spec.Sweep)
	if err != nil {
		return nil, err
	}
	if spec.Replicas > 0 {
		e.Replicas = spec.Replicas
	}
	res, err := sweep.Run(e, spec.Seed, 0)
	if err != nil {
		return nil, err
	}
	return &Report{
		Kind: spec.Kind, Key: spec.Key(), Seed: spec.Seed,
		Fingerprint: fmt.Sprintf("%016x", res.Fingerprint()),
		Metrics: []Metric{
			{Name: "replicas", Value: float64(len(res.Replicas))},
			{Name: "errors", Value: float64(res.Errors)},
		},
	}, nil
}

// catalogEntry finds the sweep labeled label in catalog.
func catalogEntry(catalog []sweep.Entry, label string) (sweep.Entry, error) {
	i := slices.IndexFunc(catalog, func(e sweep.Entry) bool { return e.Label == label })
	if i < 0 {
		return sweep.Entry{}, fmt.Errorf("serve: sweep %q not in the registered catalog", label)
	}
	return catalog[i], nil
}
