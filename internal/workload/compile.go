package workload

import (
	"fmt"

	"spiderfs/internal/lustre"
	"spiderfs/internal/sim"
)

// CompileConfig models the §VII anti-pattern the paper warns users
// about: building code on the scratch file system. A compile is a storm
// of metadata operations — lookups, creates of tiny objects, stats —
// that lands on the namespace's single MDS and degrades every other
// user's metadata latency.
type CompileConfig struct {
	// SourceFiles to "compile": each costs a lookup + stat; each emits
	// an object file (create + tiny write) and intermediate stats.
	SourceFiles int
	// StatsPerFile models header lookups per compilation unit.
	StatsPerFile int
	// Parallelism is the make -j width.
	Parallelism int
}

// CompileResult reports the build and its collateral damage.
type CompileResult struct {
	Duration sim.Time
	MDSOps   uint64
}

// RunCompile executes the metadata storm against fs under build/.
func RunCompile(fs *lustre.FS, cfg CompileConfig, done func(CompileResult)) {
	if cfg.SourceFiles <= 0 {
		panic("workload: compile needs source files") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	if cfg.Parallelism < 1 {
		cfg.Parallelism = 1
	}
	if cfg.StatsPerFile < 1 {
		cfg.StatsPerFile = 8
	}
	eng := fs.Engine()
	start := eng.Now()
	opsBefore := fs.MetadataOps()
	next := 0
	b := sim.NewBarrier(func() {
		if done != nil {
			done(CompileResult{Duration: eng.Now() - start, MDSOps: fs.MetadataOps() - opsBefore})
		}
	})
	var worker func()
	worker = func() {
		if next >= cfg.SourceFiles {
			b.Done()
			return
		}
		i := next
		next++
		// Header stats, then emit the object file.
		remainingStats := cfg.StatsPerFile
		var statPhase func()
		statPhase = func() {
			if remainingStats == 0 {
				fs.Create(fmt.Sprintf("build/obj%06d.o", i), 1, func(f *lustre.File) {
					f.Objects[0].Preload(32 << 10)
					worker()
				})
				return
			}
			remainingStats--
			fs.Open(fmt.Sprintf("build/src%06d.c", i%16), func(*lustre.File) { statPhase() })
		}
		statPhase()
	}
	for w := 0; w < cfg.Parallelism; w++ {
		b.Add(1)
		worker()
	}
	b.Arm()
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
