package qa

import (
	"spiderfs/internal/disk"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

// SlowDiskCampaign runs one E3 slow-disk elimination campaign (§V-A):
// a fresh engine and a fleet of Spider II RAID groups on 1 GiB NL-SAS
// members drawn from fleet, then the full multi-round
// benchmark/bin/replace loop, writing benchBytes per group per round,
// driven by elim. It returns the campaign report and the fleet's drive
// count.
func SlowDiskCampaign(groups int, benchBytes int64, fleet, elim *rng.Source) (Report, int) {
	eng := sim.NewEngine()
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = 1 << 30
	gs := raid.BuildGroups(eng, groups, dcfg, fleet)
	drives := 0
	for _, g := range gs {
		drives += len(g.Disks())
	}
	return RunElimination(eng, gs, benchBytes, elim), drives
}
