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
