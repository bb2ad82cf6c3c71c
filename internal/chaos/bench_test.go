package chaos

import "testing"

// BenchmarkQuickCampaign runs one featured quick campaign (one day, the
// small center) per op, as a serve-mix cold session does: the rung for
// the campaign's CPU time and allocations.
func BenchmarkQuickCampaign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(QuickConfig(testSeed))
	}
}

// TestQuickCampaignAllocationCeiling holds one quick campaign to at
// most 7,000 allocations (about 5,900 today): a campaign allocates per
// RAID group, not per drive, per defect or per ledger hash (DESIGN.md
// "Slab-built components").
func TestQuickCampaignAllocationCeiling(t *testing.T) {
	if n := testing.AllocsPerRun(2, func() { Run(QuickConfig(testSeed)) }); n > 7000 {
		t.Errorf("quick campaign allocates %.0f, want at most 7,000", n)
	}
}
