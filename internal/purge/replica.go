package purge

import (
	"fmt"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/sweep"
	"spiderfs/internal/tools"
)

// ResidencyConfig shapes one E13 purge-residency replica: days of
// production at a Poisson-distributed daily file rate under the given
// policy. The stochastic production is what makes a seed sweep
// informative — each replica sees a different arrival schedule, and the
// merged report shows how tightly the 14-day policy bounds residency
// across them.
type ResidencyConfig struct {
	Policy      Policy
	Days        int
	FilesPerDay int // mean of the daily Poisson draw
	FileSize    int64
}

// DefaultResidency mirrors the E13 benchmark: 25 days of production
// under the 14-day Spider policy.
func DefaultResidency() ResidencyConfig {
	return ResidencyConfig{
		Policy:      Spider2Policy(),
		Days:        25,
		FilesPerDay: 20,
		FileSize:    8 << 20,
	}
}

// ResidencyReplica returns a sweep body that runs one independent E13
// residency campaign (§IV-C): a namespace built from the replica seed,
// daily production, the periodic purger, and the steady-state residency
// and fill recorded as metrics.
func ResidencyReplica(cfg ResidencyConfig) sweep.Body {
	return func(r *sweep.Rep) error {
		eng := sim.NewEngine()
		fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(r.Seed))
		p := New(fs, cfg.Policy)
		p.Start()
		arrivals := r.Src.Split("production")
		day := 0
		var producer func()
		producer = func() {
			if day >= cfg.Days {
				return
			}
			if files := arrivals.Poisson(float64(cfg.FilesPerDay)); files > 0 {
				tools.Populate(fs, tools.TreeSpec{
					Dirs: 1, FilesPerDir: files, FileSize: cfg.FileSize,
					Root: fmt.Sprintf("day%02d", day),
				})
			}
			day++
			eng.After(sim.Day, producer)
		}
		producer()
		eng.RunUntil(sim.Time(cfg.Days) * sim.Day)
		p.Stop()
		eng.Run()
		if len(p.Sweeps) == 0 {
			return fmt.Errorf("purge: no sweeps ran in %d days", cfg.Days)
		}

		last := p.Sweeps[len(p.Sweeps)-1]
		r.Record("resident_files", float64(fs.NumFiles))
		r.Record("resident_days", float64(fs.NumFiles)/float64(cfg.FilesPerDay))
		r.Record("deleted_files", float64(p.Deleted))
		r.Record("purge_sweeps", float64(len(p.Sweeps)))
		r.Record("freed_gib", float64(p.Freed)/(1<<30))
		r.Record("final_fill", last.FillAfter)
		return nil
	}
}
