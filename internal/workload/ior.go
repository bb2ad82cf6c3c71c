// Package workload implements the I/O drivers and workload generators
// used throughout the Spider studies: an IOR-like file-per-process
// benchmark (Figs. 3 and 4), checkpoint/restart and analytics
// application models, the mixed center-wide workload whose statistics
// §II reports, and the fair-lio-style block-level benchmark from the
// acquisition suite.
package workload

import (
	"fmt"

	"spiderfs/internal/lustre"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/topology"
)

// Placer assigns torus coordinates to client ranks. The paper contrasts
// scheduler (random) placement with I/O-optimized placement (§V-C).
type Placer func(rank int) topology.Coord

// RandomPlacer scatters ranks across the torus like the batch scheduler
// does (optimized for nearest-neighbor communication, not I/O).
func RandomPlacer(t topology.Torus, seed uint64) Placer {
	// Cheap deterministic hash scatter; rank i lands on a pseudo-random
	// node independent of how many ranks run.
	return func(rank int) topology.Coord {
		x := uint64(rank)*0x9e3779b97f4a7c15 + seed
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 32
		return t.CoordOf(int(x % uint64(t.Nodes())))
	}
}

// IORConfig parameterizes a file-per-process run.
type IORConfig struct {
	Clients      int
	TransferSize int64
	// BlockSize is the data each process moves; ignored when StoneWall
	// is set (run until the wall, as OLCF's scaling tests did).
	BlockSize int64
	StoneWall sim.Time
	Read      bool
	// StripeCount for each process's file; file-per-process runs use 1.
	StripeCount int
	Dir         string
	Placer      Placer
	Transport   lustre.Transport
	// Tracer, when set, is handed to every client so sampled RPCs are
	// recorded by the spantrace plane (attach it to the namespace with
	// FS.SetTracer or center.AttachTracer first).
	Tracer *spantrace.Tracer
}

// IORResult reports a run.
type IORResult struct {
	Clients      int
	Transfer     int64
	BytesMoved   int64
	Duration     sim.Time
	AggregateBps float64
	MinClient    int64
	MaxClient    int64
}

func (r IORResult) String() string {
	return fmt.Sprintf("ior clients=%d xfer=%s agg=%.1f GB/s (moved %.1f GiB in %v)",
		r.Clients, fmtBytes(r.Transfer), r.AggregateBps/1e9,
		float64(r.BytesMoved)/(1<<30), r.Duration)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// RunIOR executes the benchmark to completion on the namespace's engine
// and returns the aggregate result. The engine must be otherwise idle
// (OLCF ran these on a quiet system).
func RunIOR(fs *lustre.FS, cfg IORConfig) IORResult {
	eng := fs.Engine()
	if cfg.Clients <= 0 || cfg.TransferSize <= 0 {
		panic("workload: IOR needs clients and a transfer size") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	if cfg.StoneWall <= 0 && cfg.BlockSize <= 0 {
		panic("workload: IOR needs a stonewall or a block size") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	if cfg.StripeCount <= 0 {
		cfg.StripeCount = 1
	}
	if cfg.Placer == nil {
		cfg.Placer = func(int) topology.Coord { return topology.Coord{} }
	}
	if cfg.Transport == nil {
		cfg.Transport = lustre.NullTransport{Eng: eng}
	}
	dir := cfg.Dir
	if dir == "" {
		dir = "ior"
	}

	clients := make([]*lustre.Client, cfg.Clients)
	files := make([]*lustre.File, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		clients[i] = lustre.NewClient(i, cfg.Placer(i), fs, cfg.Transport)
		clients[i].Tracer = cfg.Tracer
		i := i
		fs.Create(fmt.Sprintf("%s/rank%07d", dir, i), cfg.StripeCount, func(f *lustre.File) {
			files[i] = f
		})
	}
	eng.Run() // finish creates (and, for reads, nothing else yet)

	if cfg.Read {
		// Pre-populate each file so reads have data.
		prefill := cfg.BlockSize
		if prefill <= 0 {
			prefill = 64 * cfg.TransferSize
		}
		for i, c := range clients {
			c.WriteStream(files[i], prefill, 1<<20, nil)
		}
		eng.Run()
	}

	start := eng.Now()
	var moved int64
	var lastAck sim.Time
	perClient := make([]int64, cfg.Clients)
	record := func(i int) func(int64) {
		return func(n int64) {
			moved += n
			perClient[i] = n
			if eng.Now() > lastAck {
				lastAck = eng.Now()
			}
		}
	}
	deadline := start + cfg.StoneWall
	for i, c := range clients {
		switch {
		case cfg.Read && cfg.StoneWall > 0:
			c.ReadUntil(files[i], deadline, cfg.TransferSize, record(i))
		case cfg.Read:
			c.ReadStream(files[i], cfg.BlockSize, cfg.TransferSize, false, record(i))
		case cfg.StoneWall > 0:
			c.WriteUntil(files[i], deadline, cfg.TransferSize, record(i))
		default:
			c.WriteStream(files[i], cfg.BlockSize, cfg.TransferSize, record(i))
		}
	}
	eng.Run()
	// Measure to the last client acknowledgement: the engine keeps
	// running controller flush timers and RAID drain after the benchmark
	// ends, and that idle tail must not dilute the bandwidth.
	dur := lastAck - start
	if dur <= 0 {
		dur = eng.Now() - start
	}
	res := IORResult{
		Clients:    cfg.Clients,
		Transfer:   cfg.TransferSize,
		BytesMoved: moved,
		Duration:   dur,
	}
	if dur > 0 {
		res.AggregateBps = float64(moved) / dur.Seconds()
	}
	for i, n := range perClient {
		if i == 0 || n < res.MinClient {
			res.MinClient = n
		}
		if n > res.MaxClient {
			res.MaxClient = n
		}
	}
	return res
}
