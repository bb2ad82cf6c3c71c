package chaos

import (
	"sync"
	"testing"

	"spiderfs/internal/sim"
)

const testSeed = 7

// The featured quick campaign is used by several tests; run it once.
var (
	quickOnce sync.Once
	quickRep  *Report
)

func featured(t *testing.T) *Report {
	t.Helper()
	quickOnce.Do(func() { quickRep = Run(QuickConfig(testSeed)) })
	return quickRep
}

// The campaign-level determinism contract: the same configuration,
// including the seed, produces a bit-identical report across runs.
func TestCampaignDeterministic(t *testing.T) {
	r1 := featured(t)
	r2 := Run(QuickConfig(testSeed))
	if r1.Fingerprint() != r2.Fingerprint() {
		t.Fatalf("fingerprints differ: %x vs %x", r1.Fingerprint(), r2.Fingerprint())
	}
	if r1.DiskFailures != r2.DiskFailures || r1.Rebuilds != r2.Rebuilds ||
		r1.GroupsLost != r2.GroupsLost {
		t.Fatalf("failure counts differ: %d/%d/%d vs %d/%d/%d",
			r1.DiskFailures, r1.Rebuilds, r1.GroupsLost,
			r2.DiskFailures, r2.Rebuilds, r2.GroupsLost)
	}
	if r1.Availability != r2.Availability || r1.OSTDowntime != r2.OSTDowntime {
		t.Fatalf("availability differs: %v/%v vs %v/%v",
			r1.Availability, r1.OSTDowntime, r2.Availability, r2.OSTDowntime)
	}
}

// The event-granular determinism contract: two in-process runs of a
// congestion-heavy full-center campaign (dense probe pulses drive many
// same-instant flow completions through the shared fabric) must produce
// byte-identical engine event traces, not just matching aggregate
// fingerprints. This is the center-wide regression test for the ordered
// flow registries in netsim: scheduling any event from map iteration
// reorders the engine's FIFO tie-break seq and diverges the trace.
func TestCampaignEventTraceDeterministic(t *testing.T) {
	cfg := QuickConfig(testSeed)
	cfg.TraceEvents = true
	// Congestion-heavy: probe every 15 minutes so striped writes from
	// every namespace overlap in the fabric for most of the window.
	cfg.ProbeInterval = 15 * sim.Minute
	r1 := Run(cfg)
	r2 := Run(cfg)
	if r1.TraceEvents == 0 {
		t.Fatal("trace observed no events")
	}
	if r1.TraceEvents != r2.TraceEvents {
		t.Fatalf("event counts differ: %d vs %d", r1.TraceEvents, r2.TraceEvents)
	}
	if r1.EventTrace != r2.EventTrace {
		t.Fatalf("event traces differ: %x vs %x", r1.EventTrace, r2.EventTrace)
	}
	if r1.Fingerprint() != r2.Fingerprint() {
		t.Fatalf("fingerprints differ: %x vs %x", r1.Fingerprint(), r2.Fingerprint())
	}
}

// One quick campaign must deliver the entire fault menu without a
// panic, and the report must show the center absorbing it.
func TestCampaignDeliversFullFaultMenu(t *testing.T) {
	r := featured(t)
	if r.DiskFailures == 0 || r.Rebuilds == 0 {
		t.Fatalf("no disk failure activity: %d failures, %d rebuilds", r.DiskFailures, r.Rebuilds)
	}
	if r.OSSCrashes == 0 {
		t.Fatal("no OSS crashes delivered")
	}
	if r.RouterBursts == 0 || r.RoutersKilled == 0 {
		t.Fatalf("no router bursts: %d/%d", r.RouterBursts, r.RoutersKilled)
	}
	if r.CableDegradations == 0 {
		t.Fatal("no cable degradations delivered")
	}
	if r.MDSOutages != 1 {
		t.Fatalf("MDS outages = %d, want the scripted 1", r.MDSOutages)
	}
	if r.Cascades == 0 {
		t.Fatal("no cascade propagation recorded")
	}
	if r.Incidents == 0 {
		t.Fatal("no incidents coalesced from the event stream")
	}
	if r.Probes == 0 {
		t.Fatal("no probes completed")
	}
	if r.UnavailableProbes == 0 {
		t.Fatal("the MDS outage should catch at least one probe pulse")
	}
	if !(r.Availability > 0.9 && r.Availability < 1) {
		t.Fatalf("availability = %v, want in (0.9, 1)", r.Availability)
	}
	if r.OSTDowntime == 0 {
		t.Fatal("outage ledger recorded no OST downtime")
	}
}

// Replacements must never rebuild a member that is already back online.
// Seed 41 draws the same disk twice while it is offline, so the injector
// schedules a second replacement after the first rebuild has finished.
// Seed 64 leaves a group degraded on a member other than the enclosure
// slot the repair sweep restocks.
func TestCampaignSkipsReplacingOnlineMembers(t *testing.T) {
	for _, seed := range []uint64{41, 64} {
		cfg := QuickConfig(seed)
		for _, c := range []Config{cfg, cfg.Ablated()} {
			if r := Run(c); r.Probes == 0 {
				t.Fatalf("seed %d: campaign completed no probes", seed)
			}
		}
	}
}

// With ARN armed, senders never discover dead routers the hard way.
func TestFeaturedCampaignHasNoRouterStalls(t *testing.T) {
	r := featured(t)
	if r.StalledSends != 0 || r.StallTime != 0 {
		t.Fatalf("ARN run stalled %d sends (%v)", r.StalledSends, r.StallTime)
	}
}

// The headline experiment: disarming imperative recovery and ARN, with
// an identical fault schedule (same seed), must visibly grow the outage
// ledger — longer OST downtime, lower availability, and real router
// stalls — while the featured run shrinks all three.
func TestAblationGrowsOutageLedger(t *testing.T) {
	feat := featured(t)
	abl := Run(QuickConfig(testSeed).Ablated())

	// Same fault schedule delivered: the processes draw from the same
	// named splits regardless of the feature flags.
	if feat.DiskFailures != abl.DiskFailures {
		t.Fatalf("disk schedules diverged: %d vs %d", feat.DiskFailures, abl.DiskFailures)
	}
	if feat.RouterBursts != abl.RouterBursts || feat.RoutersKilled != abl.RoutersKilled {
		t.Fatalf("router schedules diverged: %d/%d vs %d/%d",
			feat.RouterBursts, feat.RoutersKilled, abl.RouterBursts, abl.RoutersKilled)
	}
	if f, a := feat.OSSCrashes+feat.SkippedFaults, abl.OSSCrashes+abl.SkippedFaults; f != a {
		t.Fatalf("OSS crash schedules diverged: %d vs %d", f, a)
	}

	if abl.OSTDowntime <= feat.OSTDowntime {
		t.Fatalf("ablated OST downtime %v not larger than featured %v",
			abl.OSTDowntime, feat.OSTDowntime)
	}
	if abl.Availability >= feat.Availability {
		t.Fatalf("ablated availability %v not below featured %v",
			abl.Availability, feat.Availability)
	}
	if abl.StalledSends == 0 || abl.StallTime == 0 {
		t.Fatal("without ARN the router bursts should stall senders")
	}
	if abl.StallTime <= feat.StallTime {
		t.Fatalf("ablated stall time %v not larger than featured %v",
			abl.StallTime, feat.StallTime)
	}
	if feat.MeanProbeMBps <= abl.MeanProbeMBps {
		t.Fatalf("featured probe throughput %.1f MB/s not above ablated %.1f MB/s",
			feat.MeanProbeMBps, abl.MeanProbeMBps)
	}
}

func TestReportRendersAndRollsUp(t *testing.T) {
	r := featured(t)
	s := r.String()
	if len(s) == 0 {
		t.Fatal("empty report")
	}
	kinds := r.Kinds()
	if len(kinds) == 0 {
		t.Fatal("no kind rollup")
	}
	var osts, groups bool
	for _, k := range kinds {
		if k.Kind == KindOST {
			osts = true
			if k.Components != r.OSTs {
				t.Fatalf("OST rollup %d components, report says %d", k.Components, r.OSTs)
			}
			if k.Failures > 0 && (k.MTBF == 0 || k.MTTR == 0) {
				t.Fatalf("OST rollup with %d failures lacks MTBF/MTTR", k.Failures)
			}
		}
		if k.Kind == KindGroup {
			groups = true
		}
	}
	if !osts || !groups {
		t.Fatal("rollup missing OST or group rows")
	}
	if len(r.Timeline) == 0 {
		t.Fatal("no timeline entries recorded")
	}
}
