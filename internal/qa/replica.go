package qa

import (
	"fmt"

	"spiderfs/internal/disk"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/sweep"
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

// SlowDiskReplica returns a sweep body that runs one independent
// SlowDiskCampaign seeded from the replica stream and records the
// campaign's headline numbers as metrics. Replicas share nothing, so
// the sweep runner can fan them across workers.
func SlowDiskReplica(groups int, benchBytes int64) sweep.Body {
	return func(r *sweep.Rep) error {
		rep, drives := SlowDiskCampaign(groups, benchBytes, rng.New(r.Seed), r.Src.Split("elim"))
		if len(rep.Rounds) == 0 {
			return fmt.Errorf("qa: elimination produced no rounds")
		}
		first, last := rep.Rounds[0], rep.Rounds[len(rep.Rounds)-1]
		r.Record("rounds", float64(len(rep.Rounds)))
		r.Record("replaced_frac", float64(rep.TotalReplaced)/float64(drives))
		r.Record("initial_spread", first.Spread)
		r.Record("final_spread", last.Spread)
		if rep.Converged {
			r.Record("converged", 1)
		} else {
			r.Record("converged", 0)
		}
		if rep.BeforeMBps > 0 {
			r.Record("aggregate_gain", rep.AfterMBps/rep.BeforeMBps-1)
		}
		return nil
	}
}
