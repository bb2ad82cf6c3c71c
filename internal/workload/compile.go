package workload

import (
	"fmt"

	"spiderfs/internal/lustre"
	"spiderfs/internal/sim"
)

// The compile RunCompile models: a make -j32 of 3,000 sources.
const (
	// compileSources to "compile": each costs a lookup + stat; each
	// emits an object file (create + tiny write) and intermediate stats.
	compileSources = 3000
	// compileStatsPerFile models header lookups per compilation unit.
	compileStatsPerFile = 8
	// compileParallelism is the make -j width.
	compileParallelism = 32
)

// CompileResult reports the build and its collateral damage.
type CompileResult struct {
	Duration sim.Time
	MDSOps   uint64
}

// RunCompile models the §VII anti-pattern the paper warns users about:
// building code on the scratch file system. A compile is a storm of
// metadata operations — lookups, creates of tiny objects, stats — that
// lands on the namespace's single MDS and degrades every other user's
// metadata latency. It executes the storm against fs under build/.
func RunCompile(fs *lustre.FS, done func(CompileResult)) {
	eng := fs.Engine()
	start := eng.Now()
	opsBefore := fs.MetadataOps()
	sim.Workers(compileSources, compileParallelism, func(_, i int, next func()) {
		// Header stats, then emit the object file.
		remainingStats := compileStatsPerFile
		var statPhase func()
		statPhase = func() {
			if remainingStats == 0 {
				fs.Create(fmt.Sprintf("build/obj%06d.o", i), 1, func(f *lustre.File) {
					f.Objects[0].Preload(32 << 10)
					next()
				})
				return
			}
			remainingStats--
			fs.Open(fmt.Sprintf("build/src%06d.c", i%16), func(*lustre.File) { statPhase() })
		}
		statPhase()
	}, func() {
		if done != nil {
			done(CompileResult{Duration: eng.Now() - start, MDSOps: fs.MetadataOps() - opsBefore})
		}
	})
}

// MetadataLatencyProbe measures the mean latency of n sequential stat
// operations on fs — the "other user" experience while a compile (or
// anything else) runs.
func MetadataLatencyProbe(fs *lustre.FS, path string, n int, done func(mean sim.Time)) {
	eng := fs.Engine()
	fs.Create(path, 1, func(f *lustre.File) {
		var total sim.Time
		remaining := n
		var probe func()
		probe = func() {
			if remaining == 0 {
				if done != nil {
					done(total / sim.Time(n))
				}
				return
			}
			remaining--
			t0 := eng.Now()
			fs.Stat(f, func() {
				total += eng.Now() - t0
				probe()
			})
		}
		probe()
	})
}
