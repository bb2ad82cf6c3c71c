package purge

import (
	"fmt"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/sweep"
	"spiderfs/internal/tools"
)

// The E13 production campaign: residencyDays of daily output under the
// 14-day Spider policy, residencyFilesPerDay files of residencyFileSize
// a day on average.
const (
	residencyDays        = 25
	residencyFilesPerDay = 20
	residencyFileSize    = 8 << 20
)

// Residency runs the E13 campaign (§IV-C) on a test namespace built
// from seed: each simulated day writes filesToday() files into a fresh
// day directory while the periodic purger enforces the Spider policy.
// It returns once the campaign has drained, with the purger's record
// and the namespace's steady-state residency.
func Residency(seed uint64, filesToday func() int) (*Purger, *lustre.FS) {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	p := New(fs, Spider2Policy())
	p.Start()
	day := 0
	var producer func()
	producer = func() {
		if day >= residencyDays {
			return
		}
		if files := filesToday(); files > 0 {
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
	return p, fs
}

// ResidencyReplica returns a sweep body that runs one independent E13
// residency campaign from the replica seed at a Poisson-distributed
// daily file count, and records the steady-state residency and fill.
// The stochastic production is what makes a seed sweep informative —
// each replica sees a different arrival schedule, and the merged report
// shows how tightly the policy bounds residency across them.
func ResidencyReplica() sweep.Body {
	return func(r *sweep.Rep) error {
		arrivals := r.Src.Split("production")
		p, fs := Residency(r.Seed, func() int { return arrivals.Poisson(residencyFilesPerDay) })
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
