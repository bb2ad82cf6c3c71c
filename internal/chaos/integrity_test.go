package chaos

import (
	"fmt"
	"strings"
	"testing"
)

// The quick campaign arms the whole integrity plane; the featured run
// must show it working: scrub passes covering the fleet, real repairs,
// UREs and mismatches detected, and no corruption served to probes.
func TestCampaignIntegrityPlaneActive(t *testing.T) {
	r := featured(t)
	if r.CorruptionStorms != 1 {
		t.Fatalf("corruption storms = %d, want the scripted 1", r.CorruptionStorms)
	}
	if r.ScrubPasses == 0 || r.ScrubbedStripes == 0 {
		t.Fatalf("scrubber idle: %d passes over %d stripes", r.ScrubPasses, r.ScrubbedStripes)
	}
	if r.ScrubRepairs == 0 || r.ChecksumMismatches == 0 || r.UREsDetected == 0 {
		t.Fatalf("no integrity findings: repairs=%d mismatches=%d UREs=%d",
			r.ScrubRepairs, r.ChecksumMismatches, r.UREsDetected)
	}
	if r.RebuildLatentHits == 0 {
		t.Fatal("no latent errors crossed a rebuild window; the quick campaign should exercise it")
	}
	if r.UndetectedCorruptReads != 0 {
		t.Fatalf("%d undetected corrupt reads with the scrubber on", r.UndetectedCorruptReads)
	}
}

// Satellite: scrub-escalated stripes surface in the availability report
// as data-loss accounting, and the campaign fingerprint stays
// bit-identical across runs with the scrubber and a dense storm on.
func TestScrubEscalatedDataLossInReport(t *testing.T) {
	cfg := QuickConfig(11)
	// Dense enough that some stripes exceed parity during rebuild
	// windows: real latent data loss, counted rather than panicked.
	sched := quickSchedule
	sched.corruptionStormErrors = 30000
	r1 := run(cfg, sched)
	if r1.LatentDataLoss == 0 {
		t.Fatal("dense storm escalated no stripes beyond parity")
	}
	if r1.ScrubRepairs == 0 {
		t.Fatal("scrubber repaired nothing under the dense storm")
	}
	s := r1.String()
	want := fmt.Sprintf("data loss: %d stripes beyond parity", r1.LatentDataLoss)
	if !strings.Contains(s, want) {
		t.Fatalf("availability report missing %q:\n%s", want, s)
	}
	r2 := run(cfg, sched)
	if r1.Fingerprint() != r2.Fingerprint() {
		t.Fatalf("fingerprints with scrubber + storm diverged: %x vs %x",
			r1.Fingerprint(), r2.Fingerprint())
	}
	if r2.LatentDataLoss != r1.LatentDataLoss || r2.RebuildLatentHits != r1.RebuildLatentHits {
		t.Fatalf("data-loss accounting diverged: %d/%d vs %d/%d",
			r1.LatentDataLoss, r1.RebuildLatentHits, r2.LatentDataLoss, r2.RebuildLatentHits)
	}
}

// Disabling the scrubber on an otherwise identical configuration must
// not shift any fault schedule (the scrubber draws no randomness) and
// must leave the storm's corruption in place for rebuilds to trip over.
func TestScrubberAblationKeepsFaultSchedule(t *testing.T) {
	on := featured(t)
	sched := quickSchedule
	sched.scrub.PassInterval = 0
	off := run(QuickConfig(testSeed), sched)
	if on.DiskFailures != off.DiskFailures || on.RoutersKilled != off.RoutersKilled ||
		on.OSSCrashes+on.SkippedFaults != off.OSSCrashes+off.SkippedFaults {
		t.Fatalf("fault schedules diverged with scrubber off: disks %d/%d routers %d/%d",
			on.DiskFailures, off.DiskFailures, on.RoutersKilled, off.RoutersKilled)
	}
	if off.ScrubPasses != 0 || off.ScrubRepairs != 0 {
		t.Fatalf("scrub-off run scrubbed: %d passes, %d repairs", off.ScrubPasses, off.ScrubRepairs)
	}
	if off.ChecksumMismatches >= on.ChecksumMismatches {
		t.Fatalf("without scrub reads found more mismatches (%d) than scrubbed runs (%d)?",
			off.ChecksumMismatches, on.ChecksumMismatches)
	}
}
