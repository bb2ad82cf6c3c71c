package purge

import (
	"fmt"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/tools"
)

// The E13 production campaign: ResidencyDays of daily output under the
// 14-day Spider policy, in files of residencyFileSize.
const (
	ResidencyDays     = 25
	residencyFileSize = 8 << 20
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
		if day >= ResidencyDays {
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
	eng.RunUntil(ResidencyDays * sim.Day)
	p.Stop()
	eng.Run()
	return p, fs
}
