package purge

import (
	"fmt"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/sweep"
	"spiderfs/internal/tools"
)

// E13 residency replica: residencyDays of production at a
// Poisson-distributed daily file rate under the 14-day Spider policy.
// The stochastic production is what makes a seed sweep informative —
// each replica sees a different arrival schedule, and the merged report
// shows how tightly the policy bounds residency across them.
const (
	residencyDays        = 25
	residencyFilesPerDay = 20 // mean of the daily Poisson draw
	residencyFileSize    = 8 << 20
)

// ResidencyReplica returns a sweep body that runs one independent E13
// residency campaign (§IV-C): a namespace built from the replica seed,
// daily production, the periodic purger, and the steady-state residency
// and fill recorded as metrics.
func ResidencyReplica() sweep.Body {
	return func(r *sweep.Rep) error {
		eng := sim.NewEngine()
		fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(r.Seed))
		p := New(fs, Spider2Policy())
		p.Start()
		arrivals := r.Src.Split("production")
		day := 0
		var producer func()
		producer = func() {
			if day >= residencyDays {
				return
			}
			if files := arrivals.Poisson(residencyFilesPerDay); files > 0 {
				tools.Populate(fs, tools.TreeSpec{
					Dirs: 1, FilesPerDir: files, FileSize: residencyFileSize,
					Root: fmt.Sprintf("day%02d", day),
				})
			}
			day++
			eng.After(sim.Day, producer)
		}
		producer()
		eng.RunUntil(residencyDays * sim.Day)
		p.Stop()
		eng.Run()
		if len(p.Sweeps) == 0 {
			return fmt.Errorf("purge: no sweeps ran in %d days", residencyDays)
		}

		last := p.Sweeps[len(p.Sweeps)-1]
		r.Record("resident_files", float64(fs.NumFiles))
		r.Record("resident_days", float64(fs.NumFiles)/residencyFilesPerDay)
		r.Record("deleted_files", float64(p.Deleted))
		r.Record("purge_sweeps", float64(len(p.Sweeps)))
		r.Record("freed_gib", float64(p.Freed)/(1<<30))
		r.Record("final_fill", last.FillAfter)
		return nil
	}
}
