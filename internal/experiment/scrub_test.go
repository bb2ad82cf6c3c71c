package experiment

import (
	"testing"

	"spiderfs/internal/sim"
)

// TestE19ScenarioDeterministic pins the replica contract: same arguments,
// bit-identical result — including with the scrubber off (stream
// isolation: disabling scrub must not shift any model stream).
func TestE19ScenarioDeterministic(t *testing.T) {
	for _, scrub := range []sim.Time{0, DefaultScrubInterval} {
		a := RunScenario(42, scrub)
		b := RunScenario(42, scrub)
		if a != b {
			t.Fatalf("scrub=%v: double run diverged:\n%+v\n%+v", scrub, a, b)
		}
	}
}

// TestE19ZeroUndetectedAtDefaultInterval pins the headline acceptance
// property: at the default scrub interval the scrubber wins the race
// against foreground reads for every freshly corrupted sector.
func TestE19ZeroUndetectedAtDefaultInterval(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := RunScenario(seed, DefaultScrubInterval)
		if r.UndetectedReads != 0 {
			t.Fatalf("seed %d: %d undetected corrupt reads at default interval", seed, r.UndetectedReads)
		}
		if r.LostStripes != 0 {
			t.Fatalf("seed %d: %d stripes lost at default interval", seed, r.LostStripes)
		}
		if r.ScrubRepairs == 0 {
			t.Fatalf("seed %d: scrubber repaired nothing — storm not reaching the array?", seed)
		}
	}
}

// TestE19ScrubOffShowsExposure pins the contrast arm: without scrubbing
// the storm's bit rot reaches readers and the rebuild trips latent
// errors — the exposure the experiment quantifies.
func TestE19ScrubOffShowsExposure(t *testing.T) {
	r := RunScenario(3, 0)
	if r.UndetectedReads == 0 {
		t.Fatal("scrub-off run served no undetected corrupt reads")
	}
	if r.RebuildHits == 0 {
		t.Fatal("rebuild crossed no latent errors with scrubbing off")
	}
	if r.ScrubPasses != 0 || r.ScrubRepairs != 0 {
		t.Fatalf("scrub-off run scrubbed: passes=%d repairs=%d", r.ScrubPasses, r.ScrubRepairs)
	}
	if r.RebuildWindow <= 0 {
		t.Fatalf("RebuildWindow = %v, want positive exposure window", r.RebuildWindow)
	}
}
