package main

import (
	"fmt"
	"math"

	"spiderfs/internal/center"
	"spiderfs/internal/lustre"
	"spiderfs/internal/placement"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
	wl "spiderfs/internal/workload"
)

// paperStorage runs the paper's storage-path experiments as the root
// bench_test.go does: Fig. 3 and Fig. 4 IOR sweeps and E14 on the 2-SSU
// miniature behind a null transport, then E1 and E5. Each experiment's
// seed is its bench_test.go seed plus (seed - 42), so the first pass of
// seed 42 reproduces the root benchmarks' headline values exactly.
var paperStorage = workload{name: "paper-storage", setup: setupPaper}

const (
	// paperOpsPerPass is the number of ops in one pass: 4 Fig. 3 points,
	// 7 Fig. 4 points, 2 E14 points, E1, and E5's four runs.
	paperOpsPerPass = 18
	// paperPasses is the calibrated work. Pass p shifts every seed by a
	// further 1000*p: the passes are independent draws of the same
	// experiments, so the cost of a run varies less from seed to seed.
	paperPasses = 3
)

// paperOp is one experiment run on a model built during set-up.
type paperOp struct {
	exp  string // fig3, fig4, e14, e1, e5, s3d
	span string
	run  func() float64 // returns the run's headline value
}

type paperJob struct {
	ops     []paperOp
	fss     []*lustre.FS     // every namespace the ops run on
	clients []*lustre.Client // the clients the benchmark itself creates
}

func setupPaper(o options, tr *tracer) (job, error) {
	j := &paperJob{}
	n := o.scaled(paperPasses * paperOpsPerPass)
	d := o.seed - 42 // wraps for seeds below 42; the sums below wrap back
	for p := uint64(0); len(j.ops) < n; p++ {
		j.ops = append(j.ops, j.pass(d+1000*p, tr)...)
	}
	// Each op runs on the one namespace it built, in op order.
	j.ops, j.fss = j.ops[:n], j.fss[:n]
	return j, nil
}

// pass builds the models of one pass and returns its ops in run order.
func (j *paperJob) pass(d uint64, tr *tracer) []paperOp {
	var ops []paperOp
	for i, sz := range []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		ops = append(ops, j.ior(tr, "fig3", 300+uint64(i)+d, false, wl.IORConfig{
			Clients: 32, TransferSize: sz, StoneWall: 300 * sim.Millisecond,
		}))
	}
	for i, n := range []int{2, 4, 8, 16, 32, 64, 128} {
		ops = append(ops, j.ior(tr, "fig4", 400+uint64(i)+d, false, wl.IORConfig{
			Clients: n, TransferSize: 1 << 20, StoneWall: 300 * sim.Millisecond,
		}))
	}
	for _, up := range []bool{false, true} {
		ops = append(ops, j.ior(tr, "e14", 1800+d, up, wl.IORConfig{
			Clients: 32, TransferSize: 1 << 20, StoneWall: sim.Second,
		}))
	}

	e1 := j.build(tr, lustre.TestNamespace(), 500+d)
	ops = append(ops, paperOp{exp: "e1", span: "workload.e1", run: func() float64 {
		cfg := wl.DefaultMixed()
		cfg.Duration = 3 * sim.Second
		cfg.MeanArrival = 4 * sim.Millisecond
		cfg.LargeMaxUnits = 4
		return wl.RunMixed(e1, cfg, rng.New(501+d)).WriteFraction()
	}})

	// E5's contended SSU pair: 2 SSUs of 4 OSTs.
	p := lustre.TestNamespace()
	p.NumSSU, p.OSTsPerSSU, p.OSSPerSSU = 2, 4, 2
	for _, balanced := range []bool{false, true} {
		fs := j.build(tr, p, 900+d)
		ops = append(ops, paperOp{exp: "e5", span: "workload.e5", run: func() float64 { return j.e5(fs, balanced) }})
	}
	for _, balanced := range []bool{false, true} {
		fs := j.build(tr, p, 901+d)
		ops = append(ops, paperOp{exp: "s3d", span: "workload.s3d", run: func() float64 { return j.s3d(fs, balanced) }})
	}
	return ops
}

// ior builds a miniature center and returns the IOR run on it.
func (j *paperJob) ior(tr *tracer, exp string, seed uint64, upgraded bool, cfg wl.IORConfig) paperOp {
	sp := tr.begin("center.build", -1, -1)
	c := center.New(center.Config{Small: true, Namespaces: 1, Upgraded: upgraded, Seed: seed})
	tr.end(sp)
	j.fss = append(j.fss, c.Namespaces[0])
	return paperOp{exp: exp, span: "workload.ior", run: func() float64 { return c.RunIOR(0, cfg).AggregateBps }}
}

// build makes one namespace on its own engine.
func (j *paperJob) build(tr *tracer, p lustre.Params, seed uint64) *lustre.FS {
	sp := tr.begin("lustre.build", -1, -1)
	fs := lustre.Build(sim.NewEngine(), p, rng.New(seed))
	tr.end(sp)
	j.fss = append(j.fss, fs)
	return fs
}

// noise starts three competing 1 MiB streams on each of OSTs 0-3 until
// the deadline: the heavily contended SSU of the paper's experiments.
func (j *paperJob) noise(fs *lustre.FS, id int, until sim.Time) {
	eng := fs.Engine()
	cl := lustre.NewClient(id, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	j.clients = append(j.clients, cl)
	var files []*lustre.File
	for i := 0; i < 12; i++ {
		fs.CreateOn(fmt.Sprintf("noise/%d", i), []int{i % 4}, func(f *lustre.File) { files = append(files, f) })
	}
	eng.Run()
	for _, f := range files {
		cl.WriteUntil(f, eng.Now()+until, 1<<20, nil)
	}
	eng.RunUntil(eng.Now() + 50*sim.Millisecond)
}

// e5 is E5's synthetic job: a 32 MiB write on a file placed by the
// default allocator or by libPIO. It returns the job's bandwidth.
func (j *paperJob) e5(fs *lustre.FS, balanced bool) float64 {
	eng := fs.Engine()
	j.noise(fs, 1000, 2*sim.Second)
	var file *lustre.File
	if balanced {
		placement.New(fs, placement.Weights{}).CreateBalanced("job/out", 2, func(f *lustre.File) { file = f })
	} else {
		fs.CreateOn("job/out", []int{0, 1}, func(f *lustre.File) { file = f })
	}
	eng.RunUntil(eng.Now() + 10*sim.Millisecond)
	cl := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	j.clients = append(j.clients, cl)
	start := eng.Now()
	var doneAt sim.Time
	cl.WriteStream(file, 32<<20, 1<<20, func(int64) { doneAt = eng.Now() })
	eng.Run()
	return float64(32<<20) / (doneAt - start).Seconds()
}

// s3d is E5's production case: S3D's dumps in a noisy environment, with
// and without the libPIO create hook. It returns the dump bandwidth.
func (j *paperJob) s3d(fs *lustre.FS, balanced bool) float64 {
	j.noise(fs, 999, 10*sim.Second)
	cfg := wl.S3DConfig{Ranks: 8, DumpBytes: 64 << 20, Dumps: 2, ComputePhase: 200 * sim.Millisecond}
	if balanced {
		bal := placement.New(fs, placement.Weights{})
		cfg.CreateFile = func(_ *lustre.FS, path string, sc int, done func(*lustre.File)) {
			bal.CreateBalanced(path, sc, done)
		}
	}
	return wl.RunS3D(fs, cfg).DumpBps
}

func (j *paperJob) run(tr *tracer) *outcome {
	out := newOutcome()
	vals := make([]float64, len(j.ops))
	for i, op := range j.ops {
		sp := tr.begin(op.span, -1, i)
		vals[i] = op.run()
		tr.end(sp)
		out.foldFloat(vals[i])
	}
	j.summarize(out, vals)
	storageCounters(out, j.fss, j.clients)
	return out
}

// summarize checks the paper's claims on every complete pass and
// records the first pass's headline values.
func (j *paperJob) summarize(out *outcome, vals []float64) {
	out.attempted = len(vals)
	for i, v := range vals {
		if !(v > 0) || math.IsInf(v, 0) {
			out.failed++
			out.problem("op %d (%s) measured %g", i, j.ops[i].exp, v)
		}
	}
	for p := 0; (p+1)*paperOpsPerPass <= len(vals); p++ {
		v := vals[p*paperOpsPerPass : (p+1)*paperOpsPerPass]
		fig3, fig4, e14, e1, e5, s3d := v[0:4], v[4:11], v[11:13], v[13], v[14:16], v[16:18]
		peak, peakAt := 0.0, 0
		for i, bw := range fig3 {
			if bw > peak {
				peak, peakAt = bw, i
			}
		}
		e5Gain := (e5[1]/e5[0] - 1) * 100
		if peakAt != 2 {
			out.problem("pass %d: Fig. 3 peaks at transfer size %d, not at 1 MiB", p, peakAt)
		}
		if e5Gain <= 70 {
			out.problem("pass %d: E5 libPIO gain %.1f%%, the paper claims more than 70%%", p, e5Gain)
		}
		if p > 0 {
			continue
		}
		plateau := 0.0
		for _, bw := range fig4 {
			plateau = max(plateau, bw)
		}
		s3dGain := (s3d[1]/s3d[0] - 1) * 100
		ratio := e14[1] / e14[0]
		out.headline("fig3_peak_gbps", peak/1e9)
		out.headline("fig4_plateau_gbps", plateau/1e9)
		out.headline("e1_write_frac", e1)
		out.headline("e5_gain_pct", e5Gain)
		out.headline("s3d_gain_pct", s3dGain)
		out.headline("e14_ratio", ratio)
		// The paper's numbers: E1's 0.60 write fraction, S3D's 24% libPIO
		// gain and E14's 1.59x controller upgrade.
		err := (math.Abs(e1/0.60-1) + math.Abs(s3dGain/24-1) + math.Abs(ratio/1.59-1)) / 3 * 100
		out.counter("workload.paper_err_pct", err)
	}
}

// storageCounters records the simulated counters of the given namespaces
// and clients, bottom layer first.
func storageCounters(out *outcome, fss []*lustre.FS, clients []*lustre.Client) {
	var events uint64
	var diskOps, diskBytes int64
	var disks int
	var diskUtil float64
	var full, partial, degraded uint64
	var ctrlRPCs, stalls, ossRPCs, journal, fragmented uint64
	var ctrlUtil, ossUtil float64
	var ctrls, osses int
	for _, fs := range fss {
		events += fs.Engine().Fired()
		for _, ost := range fs.OSTs {
			g := ost.Group()
			full += g.FullStripeWrite
			partial += g.PartialWrite
			degraded += g.DegradedReads
			for _, dk := range g.Disks() {
				diskOps += int64(dk.Ops)
				diskBytes += dk.Bytes
				diskUtil += dk.Utilization()
				disks++
			}
			journal += ost.JournalCommits
			fragmented += ost.FragmentedFlushes
		}
		for _, c := range fs.Ctrls {
			ctrlRPCs += c.RPCs
			stalls += c.CacheStalls
			ctrlUtil += c.Utilization()
			ctrls++
		}
		for _, s := range fs.OSSes {
			ossRPCs += s.RPCs
			ossUtil += s.Utilization()
			osses++
		}
	}
	var rpcs, retries uint64
	for _, c := range clients {
		rpcs += c.RPCsSent
		retries += c.RPCRetries
	}
	out.counter("sim.events", float64(events))
	out.counter("disk.ops", float64(diskOps))
	out.counter("disk.mb", float64(diskBytes)/1e6)
	out.counter("disk.util", mean(diskUtil, disks))
	out.counter("raid.full_stripe_writes", float64(full))
	out.counter("raid.partial_writes", float64(partial))
	out.counter("raid.degraded_reads", float64(degraded))
	out.counter("lustre.ctrl_rpcs", float64(ctrlRPCs))
	out.counter("lustre.ctrl_cache_stalls", float64(stalls))
	out.counter("lustre.ctrl_util", mean(ctrlUtil, ctrls))
	out.counter("lustre.oss_rpcs", float64(ossRPCs))
	out.counter("lustre.oss_util", mean(ossUtil, osses))
	out.counter("lustre.ost_journal_commits", float64(journal))
	out.counter("lustre.ost_fragmented_flushes", float64(fragmented))
	out.counter("lustre.client_rpcs", float64(rpcs))
	out.counter("lustre.client_rpc_retries", float64(retries))
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (j *paperJob) verify(*outcome) {}

func (j *paperJob) close() {}
