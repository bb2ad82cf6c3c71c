package experiment

import (
	"spiderfs/internal/chaos"
	"spiderfs/internal/integrity"
	"spiderfs/internal/purge"
	"spiderfs/internal/qa"
	"spiderfs/internal/sweep"
)

// Sweeps returns the studies whose paper claims are statistical shapes,
// not point samples, as seed sweeps: E3 slow-disk elimination (§V-A
// drive-spread distribution), E13 purge residency (§IV-C under
// stochastic production), and the E18 chaos campaign (§IV-D
// availability over many fault schedules). Each replica is an
// independent full simulation seeded from the sweep stream.
// BENCH_sweep.json is this list's artifact.
func Sweeps() []sweep.Entry {
	return []sweep.Entry{
		{Label: "e3-slowdisk", Replicas: 16, Body: qa.SlowDiskReplica(16, 16<<20)},
		{Label: "e13-purge", Replicas: 16, Body: purge.ResidencyReplica()},
		{Label: "e18-chaos", Replicas: 32, Body: chaos.CampaignReplica(chaos.QuickConfig(0))},
	}
}

// Catalog is every seed sweep the repository runs: Sweeps, then the
// E19 scrub-interval sweeps. `spidersim sweep`, `spidersim session` and
// cmd/spidersimd all read this one list, so a "sweep"-kind session
// names the same entries the CLI runs.
func Catalog() []sweep.Entry {
	return append(Sweeps(), integrity.Sweeps()...)
}
