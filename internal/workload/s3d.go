package workload

import (
	"fmt"

	"spiderfs/internal/lustre"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

// S3D models the combustion DNS code of §VI-A: a large parallel
// application that periodically dumps its simulation state
// (checkpoint + analysis output) file-per-process, run in a noisy
// production environment. The paper integrated libPIO into S3D with ~30
// changed lines and measured up to 24% POSIX I/O bandwidth improvement;
// the integration surface here is the single CreateFile hook.
type S3DConfig struct {
	Ranks        int
	DumpBytes    int64 // per rank per dump
	Dumps        int
	ComputePhase sim.Time // wall time between dumps

	// CreateFile is the libPIO hook: nil means the stock fs.Create
	// round-robin allocator; the placement library substitutes its
	// balanced CreateBalanced here.
	CreateFile func(fs *lustre.FS, path string, stripeCount int, done func(*lustre.File))
}

// S3DResult reports the I/O performance the application observed.
type S3DResult struct {
	IOTime       sim.Time // total time spent inside dump phases
	TotalTime    sim.Time
	BytesWritten int64
	// DumpBps is the mean POSIX write bandwidth across dumps — the
	// paper's reported metric.
	DumpBps float64
}

// RunS3D executes the dump/compute cycle to completion. Every rank
// writes a single-stripe file per dump under s3d/ in 1 MiB transfers.
func RunS3D(fs *lustre.FS, cfg S3DConfig) S3DResult {
	eng := fs.Engine()
	if cfg.Ranks <= 0 || cfg.Dumps <= 0 || cfg.DumpBytes <= 0 {
		panic("workload: invalid S3D config") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	create := cfg.CreateFile
	if create == nil {
		create = func(fs *lustre.FS, path string, sc int, done func(*lustre.File)) {
			fs.Create(path, sc, done)
		}
	}

	clients := make([]*lustre.Client, cfg.Ranks)
	for i := range clients {
		clients[i] = lustre.NewClient(i, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	}

	var res S3DResult
	start := eng.Now()
	var dump func(d int)
	dump = func(d int) {
		if d == cfg.Dumps {
			res.TotalTime = eng.Now() - start
			return
		}
		dumpStart := eng.Now()
		files := make([]*lustre.File, cfg.Ranks)
		created := sim.NewBarrier(func() {
			wrote := sim.NewBarrier(func() {
				res.IOTime += eng.Now() - dumpStart
				res.BytesWritten += cfg.DumpBytes * int64(cfg.Ranks)
				eng.After(cfg.ComputePhase, func() { dump(d + 1) })
			})
			for i, c := range clients {
				wrote.Add(1)
				c.WriteStream(files[i], cfg.DumpBytes, 1<<20, func(int64) { wrote.Done() })
			}
			wrote.Arm()
		})
		for i := range clients {
			i := i
			created.Add(1)
			create(fs, fmt.Sprintf("s3d/dump%03d/rank%06d", d, i), 1, func(f *lustre.File) {
				files[i] = f
				created.Done()
			})
		}
		created.Arm()
	}
	dump(0)
	eng.Run()
	if res.IOTime > 0 {
		res.DumpBps = float64(res.BytesWritten) / res.IOTime.Seconds()
	}
	return res
}
