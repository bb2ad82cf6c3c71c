package chaos

import (
	"sync"
	"testing"

	"spiderfs/internal/sim"
)

const testSeed = 7

// The featured and ablated quick campaigns are each used by several
// tests; run each once.
var (
	quickOnce, ablatedOnce sync.Once
	quickRep, ablatedRep   *Report
)

func featured(t *testing.T) *Report {
	t.Helper()
	quickOnce.Do(func() { quickRep = Run(QuickConfig(testSeed)) })
	return quickRep
}

func ablated(t *testing.T) *Report {
	t.Helper()
	ablatedOnce.Do(func() { ablatedRep = Run(QuickConfig(testSeed).Ablated()) })
	return ablatedRep
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

// PeakPending is the engine's high-water mark, a cost of the simulator
// and not a result: the report fingerprints the same with it as without
// it, so reporting it moves no pinned fingerprint.
func TestPeakPendingOutsideFingerprint(t *testing.T) {
	r := *featured(t)
	if r.PeakPending <= 0 {
		t.Fatalf("PeakPending = %d, want the engine's depth", r.PeakPending)
	}
	fp := r.Fingerprint()
	r.PeakPending = 0
	if r.Fingerprint() != fp {
		t.Fatal("the fingerprint moves with PeakPending")
	}
}

// The fabric solver's work counts are a cost of the simulator too: the
// report carries them, and fingerprints the same without them.
func TestSolverWorkOutsideFingerprint(t *testing.T) {
	r := *featured(t)
	if r.EntriesWalked == 0 || r.FlowsRerated == 0 || r.RatesChanged == 0 {
		t.Fatalf("solver work %d entries walked, %d flows re-rated, %d rates changed; want the fabric's counts",
			r.EntriesWalked, r.FlowsRerated, r.RatesChanged)
	}
	fp := r.Fingerprint()
	r.EntriesWalked, r.FlowsRerated, r.RatesChanged = 0, 0, 0
	if r.Fingerprint() != fp {
		t.Fatal("the fingerprint moves with the solver's work counts")
	}
}

// The pending set's and the RAID range checks' work counts are costs of
// the simulator too: the report carries them, and fingerprints the same
// without them.
func TestWorkCountsOutsideFingerprint(t *testing.T) {
	r := *featured(t)
	if r.PendingWork.Near == 0 || r.StripesChecked == 0 {
		t.Fatalf("pending set %+v, %d stripes checked; want the campaign's counts", r.PendingWork, r.StripesChecked)
	}
	fp := r.Fingerprint()
	r.PendingWork, r.StripesChecked = sim.PendingWork{}, 0
	if r.Fingerprint() != fp {
		t.Fatal("the fingerprint moves with the pending set's or the range checks' work counts")
	}
}

// TestWorkCountsPinned pins every work count the quick campaign reports
// at the test seed, featured and ablated. They are a function of the
// seed, so a change that makes the simulator do less work shows here
// exactly; it updates the literals and gives the ratio. The quick
// campaign holds at most 362 events, below the ring's threshold, so its
// pending set is one heap: every filing but the first goes to near.
func TestWorkCountsPinned(t *testing.T) {
	type counts struct {
		peak                   int
		set                    sim.PendingWork
		walked, rerated, rated uint64
		stripes                uint64
	}
	of := func(r *Report) counts {
		return counts{r.PeakPending, r.PendingWork, r.EntriesWalked, r.FlowsRerated, r.RatesChanged, r.StripesChecked}
	}
	for _, c := range []struct {
		name string
		got  counts
		want counts
	}{
		{"featured", of(featured(t)), counts{362, sim.PendingWork{Near: 146872, Far: 1, Rebuilds: 1}, 47168, 11904, 11904, 6537216}},
		{"ablated", of(ablated(t)), counts{362, sim.PendingWork{Near: 146880, Far: 1, Rebuilds: 1}, 46584, 11664, 11664, 6537216}},
	} {
		if c.got != c.want {
			t.Errorf("%s: work counts %+v, want %+v", c.name, c.got, c.want)
		}
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
	sched := quickSchedule
	sched.probeInterval = 15 * sim.Minute
	r1 := run(cfg, sched)
	r2 := run(cfg, sched)
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
	abl := ablated(t)

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

// The availability figures come from the component records: OSTs
// counts the KindOST entries, OSTDowntime sums their downtime, and
// Availability is the OST-weighted uptime share of the window.
func TestAvailabilityMatchesComponents(t *testing.T) {
	for _, c := range []struct {
		name string
		rep  *Report
	}{
		{"featured", featured(t)},
		{"ablated", ablated(t)},
	} {
		r := c.rep
		osts, down := 0, sim.Time(0)
		for _, s := range r.Components {
			if s.Kind == KindOST {
				osts++
				down += s.Downtime
			}
		}
		if osts == 0 || r.OSTs != osts || r.OSTDowntime != down {
			t.Errorf("%s: report OSTs %d downtime %v, components say %d and %v",
				c.name, r.OSTs, r.OSTDowntime, osts, down)
		}
		if want := 1 - float64(down)/(float64(osts)*float64(r.Window)); r.Availability != want {
			t.Errorf("%s: availability %v, want %v", c.name, r.Availability, want)
		}
	}
}

// TestCampaignFingerprintsPinned pins the report fingerprints of both
// schedules, so a mistyped schedule value fails here rather than only
// in a full 7-day benchmark run. The full-schedule window of 4 days
// and 2 hours reaches the enclosure loss, the MDS outage and the
// corruption storm.
func TestCampaignFingerprintsPinned(t *testing.T) {
	full := DefaultConfig(testSeed)
	full.Duration = 4*sim.Day + 2*sim.Hour
	for _, c := range []struct {
		name string
		rep  *Report
		want uint64
	}{
		{"quick featured", featured(t), 0x706382bb0b385557},
		{"quick ablated", ablated(t), 0x5c32c979d6215a66},
		{"full 4d2h", Run(full), 0xdd41e54e535f9783},
	} {
		if got := c.rep.Fingerprint(); got != c.want {
			t.Errorf("%s: fingerprint %#x, want %#x", c.name, got, c.want)
		}
	}
}
