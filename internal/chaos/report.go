package chaos

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"spiderfs/internal/ledger"
	"spiderfs/internal/sim"
)

// maxTimeline caps the narrative fault log carried in a report.
const maxTimeline = 40

// Report is the outcome of one campaign: fault counts, resilience
// counters, every failure-domain node's failures and downtime, and the
// delivered (possibly degraded) probe throughput.
type Report struct {
	Seed            uint64
	Window          sim.Time
	Imperative, ARN bool

	// Fault menu delivered.
	DiskFailures          int
	Rebuilds              int
	GroupsLost            int
	OSSCrashes            int
	SkippedFaults         int
	RouterBursts          int
	RoutersKilled         int
	CableCuts             int
	CableDegradations     int
	MDSOutages            int
	EnclosureGroupsFailed int
	Cascades              int

	// Resilience counters (the error paths that used to be panics).
	DroppedFlows    uint64
	StalledSends    uint64
	StallTime       sim.Time
	RPCTimeouts     uint64
	RPCRetries      uint64
	BackoffWaits    uint64
	BackoffWait     sim.Time
	GroupIOErrors   uint64
	OSSDoubleFaults uint64

	// Data-integrity plane: what the scrubber and read-time verification
	// found, fixed, and could not fix. LatentDataLoss counts stripes
	// whose defects exceeded parity — escalated to the operations
	// ledger as data-loss events, never panicked.
	CorruptionStorms       int
	ScrubPasses            int
	ScrubbedStripes        int64
	ScrubRepairs           uint64
	RepairedChunks         uint64
	UREsDetected           uint64
	ChecksumMismatches     uint64
	UndetectedCorruptReads uint64
	RebuildLatentHits      uint64
	ScrubRebuildOverlaps   int
	LatentDataLoss         int64
	LostStripeReads        uint64
	ReadEIOs               uint64

	// Monitoring view.
	Incidents         int
	HardwareIncidents int

	// Availability accounting.
	OSTs         int
	OSTDowntime  sim.Time
	Availability float64

	// Degraded-throughput probes.
	ProbesLaunched    int
	Probes            int // completed within the window
	ProbeStalls       int
	UnavailableProbes int
	MeanProbeMBps     float64
	MinProbeMBps      float64

	// Operations ledger (internal/ledger): every monitor event, operator
	// repair action, and scrub escalation, hash-chained and anchored
	// under per-epoch Merkle roots. The root sequence and head extend
	// the campaign fingerprint, so determinism regressions surface as
	// root divergence. LedgerDrops counts appends the ledger refused
	// (always zero in a healthy run). Ops carries the full export for
	// auditing and incident replay.
	LedgerEntries int
	LedgerAnchors int
	LedgerDrops   int
	LedgerRoots   []string
	LedgerHead    string
	Ops           *ledger.Export

	// Event-trace audit (populated when Config.TraceEvents is set):
	// a fingerprint over every fired engine event's (time, seq) pair
	// and the number of events observed. Two runs of the same
	// configuration must agree on both — the event-granular form of the
	// determinism contract, which catches scheduling-order divergence
	// even when the aggregate counters happen to collide.
	EventTrace  uint64
	TraceEvents uint64

	// PeakPending is the most events the campaign's engine held pending
	// at once (sim.Engine.PeakPending): a cost of the simulator, not a
	// result of the model, so Fingerprint leaves it out.
	PeakPending int
	// EntriesWalked, FlowsRerated and RatesChanged are the fabric flow
	// solver's work over the campaign (netsim.Network's counters of the
	// same names): like PeakPending a cost of the simulator, so
	// Fingerprint leaves them out.
	EntriesWalked, FlowsRerated, RatesChanged uint64
	// PendingWork is the engine's pending-set work over the campaign
	// (sim.Engine.PendingWork) and StripesChecked the stripes the RAID
	// groups' range checks examined (raid.Group.StripesChecked, summed
	// over the center): costs of the simulator too, so Fingerprint
	// leaves them out.
	PendingWork    sim.PendingWork
	StripesChecked uint64

	Components []ComponentStats
	Timeline   []string

	probeSamples []float64
}

// KindSummary is a per-kind rollup of the component records.
type KindSummary struct {
	Kind       Kind
	Components int
	Failures   int
	Downtime   sim.Time
	MTBF       sim.Time // per component of this kind, mean
	MTTR       sim.Time
}

// Kinds rolls Components up by kind, in kind order: the one per-kind
// rollup, which the OST availability figures are also read from.
func (r *Report) Kinds() []KindSummary {
	var out []KindSummary
	for k := KindGroup; k <= KindRouter; k++ {
		s := KindSummary{Kind: k}
		for _, c := range r.Components {
			if c.Kind != k {
				continue
			}
			s.Components++
			s.Failures += c.Failures
			s.Downtime += c.Downtime
		}
		if s.Components == 0 {
			continue
		}
		if s.Failures > 0 {
			// Fleet MTBF: observed window x components / failures.
			s.MTBF = sim.Time(float64(r.Window) * float64(s.Components) / float64(s.Failures))
			s.MTTR = s.Downtime / sim.Time(s.Failures)
		}
		out = append(out, s)
	}
	return out
}

// Fingerprint hashes every deterministic quantity in the report.
// Two runs of the same configuration must produce equal fingerprints —
// the campaign-level determinism contract.
func (r *Report) Fingerprint() uint64 {
	h := fnv.New64a()
	u := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	i := func(v int) { u(uint64(int64(v))) }
	t := func(v sim.Time) { u(uint64(v)) }
	f := func(v float64) { u(math.Float64bits(v)) }

	u(r.Seed)
	t(r.Window)
	i(r.DiskFailures)
	i(r.Rebuilds)
	i(r.GroupsLost)
	i(r.OSSCrashes)
	i(r.SkippedFaults)
	i(r.RouterBursts)
	i(r.RoutersKilled)
	i(r.CableCuts)
	i(r.CableDegradations)
	i(r.MDSOutages)
	i(r.EnclosureGroupsFailed)
	i(r.Cascades)
	u(r.DroppedFlows)
	u(r.StalledSends)
	t(r.StallTime)
	u(r.RPCTimeouts)
	u(r.RPCRetries)
	u(r.BackoffWaits)
	t(r.BackoffWait)
	u(r.GroupIOErrors)
	u(r.OSSDoubleFaults)
	i(r.CorruptionStorms)
	i(r.ScrubPasses)
	i(int(r.ScrubbedStripes))
	u(r.ScrubRepairs)
	u(r.RepairedChunks)
	u(r.UREsDetected)
	u(r.ChecksumMismatches)
	u(r.UndetectedCorruptReads)
	u(r.RebuildLatentHits)
	i(r.ScrubRebuildOverlaps)
	i(int(r.LatentDataLoss))
	u(r.LostStripeReads)
	u(r.ReadEIOs)
	i(r.Incidents)
	i(r.HardwareIncidents)
	i(r.OSTs)
	t(r.OSTDowntime)
	f(r.Availability)
	i(r.ProbesLaunched)
	i(r.Probes)
	i(r.UnavailableProbes)
	f(r.MeanProbeMBps)
	f(r.MinProbeMBps)
	i(r.LedgerEntries)
	i(r.LedgerAnchors)
	i(r.LedgerDrops)
	for _, root := range r.LedgerRoots {
		h.Write([]byte(root))
	}
	h.Write([]byte(r.LedgerHead))
	u(r.EventTrace)
	u(r.TraceEvents)
	for _, c := range r.Components {
		h.Write([]byte(c.Name))
		i(c.Failures)
		t(c.Downtime)
	}
	for _, s := range r.probeSamples {
		f(s)
	}
	return h.Sum64()
}

// String renders the operator-facing campaign report.
func (r *Report) String() string {
	var b strings.Builder
	feat := func(on bool) string {
		if on {
			return "on"
		}
		return "off"
	}
	fmt.Fprintf(&b, "chaos campaign: %v window, seed %d (imperative recovery %s, ARN %s)\n",
		r.Window, r.Seed, feat(r.Imperative), feat(r.ARN))
	fmt.Fprintf(&b, "faults delivered:\n")
	fmt.Fprintf(&b, "  disk failures %d (rebuilds %d, groups lost %d)\n",
		r.DiskFailures, r.Rebuilds, r.GroupsLost)
	fmt.Fprintf(&b, "  oss crashes %d (skipped double-faults %d)\n", r.OSSCrashes, r.SkippedFaults)
	fmt.Fprintf(&b, "  router bursts %d: %d routers killed, %d by cable cut\n",
		r.RouterBursts, r.RoutersKilled, r.CableCuts)
	fmt.Fprintf(&b, "  cable degradations %d, mds outages %d, enclosure-loss groups failed %d\n",
		r.CableDegradations, r.MDSOutages, r.EnclosureGroupsFailed)
	fmt.Fprintf(&b, "cascade propagation: %d dependent components taken down\n", r.Cascades)
	fmt.Fprintf(&b, "error paths exercised: %d dropped flows, %d stalled sends (%v stalled), "+
		"%d rpc timeouts (%d backed off, %v extra wait), %d group EIOs\n",
		r.DroppedFlows, r.StalledSends, r.StallTime, r.RPCTimeouts,
		r.BackoffWaits, r.BackoffWait, r.GroupIOErrors)
	fmt.Fprintf(&b, "integrity: %d scrub passes over %d stripes, %d repairs (%d by scrub), "+
		"%d UREs, %d checksum mismatches\n",
		r.ScrubPasses, r.ScrubbedStripes, r.RepairedChunks, r.ScrubRepairs,
		r.UREsDetected, r.ChecksumMismatches)
	fmt.Fprintf(&b, "data loss: %d stripes beyond parity (latent), %d undetected corrupt reads, "+
		"%d rebuild latent hits, %d EIO reads\n",
		r.LatentDataLoss, r.UndetectedCorruptReads, r.RebuildLatentHits, r.ReadEIOs)
	fmt.Fprintf(&b, "monitoring: %d incidents coalesced (%d hardware-rooted)\n",
		r.Incidents, r.HardwareIncidents)
	fmt.Fprintf(&b, "operations ledger: %d entries in %d anchored batches (%d refused), head %.16s..\n",
		r.LedgerEntries, r.LedgerAnchors, r.LedgerDrops, r.LedgerHead)
	fmt.Fprintf(&b, "availability: %.5f (%v of OST downtime across %d OSTs)\n",
		r.Availability, r.OSTDowntime, r.OSTs)
	fmt.Fprintf(&b, "probes: %d completed of %d (stalled %d, namespace-unavailable %d); "+
		"throughput mean %.1f MB/s, worst %.1f MB/s\n",
		r.Probes, r.ProbesLaunched, r.ProbeStalls, r.UnavailableProbes,
		r.MeanProbeMBps, r.MinProbeMBps)
	fmt.Fprintf(&b, "component ledger (by kind):\n")
	fmt.Fprintf(&b, "  %-10s %10s %9s %14s %14s %14s\n",
		"kind", "components", "failures", "downtime", "MTBF", "MTTR")
	for _, k := range r.Kinds() {
		mtbf, mttr := "-", "-"
		if k.Failures > 0 {
			mtbf, mttr = k.MTBF.String(), k.MTTR.String()
		}
		fmt.Fprintf(&b, "  %-10s %10d %9d %14v %14s %14s\n",
			k.Kind, k.Components, k.Failures, k.Downtime, mtbf, mttr)
	}
	return b.String()
}
