// Package center assembles the complete OLCF model: Titan's torus and
// clients, the SION fabric with LNET routers, and the Spider II
// namespaces — the data-centric architecture the paper advocates — plus
// the machine-exclusive alternative it was weighed against. The top
// experiments (data-centric vs exclusive workflows, single vs multiple
// namespaces, controller upgrades) run at this level.
package center

import (
	"fmt"

	"spiderfs/internal/lustre"
	"spiderfs/internal/netsim"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/topology"
	"spiderfs/internal/workload"
)

// Config shapes a center build.
type Config struct {
	// Scale divides the Spider II hardware (18/Scale SSUs per
	// namespace) and the router fleet, keeping per-SSU behaviour and
	// ratios intact while bounding event counts.
	Scale int
	// Namespaces is how many independent Lustre namespaces share the
	// hardware (Spider II ran two).
	Namespaces int
	// UseFabric wires clients through the Gemini+SION network; without
	// it clients attach with a null transport (storage-stack studies).
	UseFabric bool
	RouteMode netsim.RouteMode
	// Upgraded selects the post-§V-C controller.
	Upgraded bool
	Seed     uint64
	// Small selects a reduced torus/cabinet topology for unit tests.
	Small bool
}

// Center is the assembled facility.
type Center struct {
	Eng        *sim.Engine
	Src        *rng.Source
	Cfg        Config
	Torus      topology.Torus
	Placement  topology.Placement
	Fabric     *netsim.Fabric // nil when !UseFabric
	Namespaces []*lustre.FS
	// ossBase[i] is namespace i's first OSS index in the fabric's OSS
	// numbering.
	ossBase []int
}

// New builds a center.
func New(cfg Config) *Center {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	if cfg.Namespaces < 1 {
		cfg.Namespaces = 1
	}
	eng := sim.NewEngine()
	src := rng.New(cfg.Seed)
	c := &Center{Eng: eng, Src: src, Cfg: cfg}

	if cfg.Small {
		c.Torus, c.Placement = topology.MiniTitan()
	} else {
		modules, groups := 110/cfg.Scale, 9
		if modules < groups {
			modules = groups
		}
		c.Torus = topology.TitanTorus()
		c.Placement = topology.PlaceRouters(topology.TitanCabinets(), c.Torus, modules, groups)
	}

	p := lustre.Spider2Namespace().Scale(cfg.Scale)
	if cfg.Upgraded {
		p.CtrlCfg = lustre.Spider2ControllerUpgraded()
	}
	if cfg.Small {
		// A proportional miniature of one Spider II namespace: 2 SSUs of
		// 8 OSTs each on small disks, with the controller scaled to its
		// OST count so the controller remains the binding constraint, as
		// it was at full scale.
		p.NumSSU = 2
		p.OSTsPerSSU = 8
		p.OSSPerSSU = 8
		p.DiskCfg.Capacity = 2 << 30
		ratio := float64(p.OSTsPerSSU) / 56
		p.CtrlCfg.Bps *= ratio
		p.CtrlCfg.CacheBytes = int64(float64(p.CtrlCfg.CacheBytes) * ratio)
		p.CtrlCfg.Slots = 8
	}
	totalOSS := 0
	for i := 0; i < cfg.Namespaces; i++ {
		pi := p
		pi.Name = fmt.Sprintf("atlas%d", i+1)
		fs := lustre.Build(eng, pi, src.Split(pi.Name))
		c.Namespaces = append(c.Namespaces, fs)
		c.ossBase = append(c.ossBase, totalOSS)
		totalOSS += len(fs.OSSes)
	}

	if cfg.UseFabric {
		c.Fabric = netsim.NewFabric(eng, netsim.FabricConfig{Torus: c.Torus}, c.Placement, totalOSS)
	}
	return c
}

// fabricTransport maps a namespace's OSS indices onto the shared fabric.
type fabricTransport struct {
	fabric  *netsim.Fabric
	mode    netsim.RouteMode
	ossBase int
	src     *rng.Source
}

// Send implements lustre.Transport. Sends go through the fabric's
// router-failure path so that dead LNET routers stall (without ARN) or
// are routed around (with ARN), and a send with no eligible router left
// is recorded as a dropped flow instead of panicking — the semantics a
// chaos campaign needs to keep running through correlated faults.
func (t fabricTransport) Send(from topology.Coord, oss int, bytes int64, done func()) {
	t.fabric.StartClientFlow(from, t.ossBase+oss, t.mode, float64(bytes), t.src, done)
}

// AttachTracer wires the spantrace plane through every instrumented
// layer of the center — fabric, OSSes, OSTs, RAID groups, disks — and
// binds the tracer to the center's engine. Clients opt in via
// lustre.Client.Tracer / workload.IORConfig.Tracer.
func (c *Center) AttachTracer(tr *spantrace.Tracer) {
	tr.Bind(c.Eng)
	if c.Fabric != nil {
		c.Fabric.Tracer = tr
	}
	for _, fs := range c.Namespaces {
		fs.SetTracer(tr)
	}
}

// Transport returns the transport clients of namespace ns should use.
func (c *Center) Transport(ns int) lustre.Transport {
	if c.Fabric == nil {
		return lustre.NullTransport{Eng: c.Eng}
	}
	return fabricTransport{fabric: c.Fabric, mode: c.Cfg.RouteMode, ossBase: c.ossBase[ns], src: c.Src.Split(fmt.Sprintf("tr-%d", ns))}
}

// GroupsOf returns namespace ns's RAID groups in OST order (fault
// injection and chaos campaigns address storage hardware through this).
func (c *Center) GroupsOf(ns int) []*raid.Group {
	fs := c.Namespaces[ns]
	out := make([]*raid.Group, 0, len(fs.OSTs))
	for _, o := range fs.OSTs {
		out = append(out, o.Group())
	}
	return out
}

// CoupletsOf wraps namespace ns's per-SSU RAID groups in controller
// couplets under the given enclosure layout, so enclosure-level faults
// can be injected against a built center. The couplets share the
// namespace's live groups; they are constructed on demand because the
// builder itself does not model enclosures.
func (c *Center) CoupletsOf(ns int, layout raid.EnclosureLayout) []*raid.Couplet {
	fs := c.Namespaces[ns]
	groups := c.GroupsOf(ns)
	perSSU := len(groups) / len(fs.Ctrls)
	out := make([]*raid.Couplet, 0, len(fs.Ctrls))
	for ssu := 0; ssu < len(fs.Ctrls); ssu++ {
		out = append(out, raid.NewCouplet(layout, groups[ssu*perSSU:(ssu+1)*perSSU]))
	}
	return out
}

// RunIOR runs the IOR benchmark against namespace ns with the center's
// transport and the given placer.
func (c *Center) RunIOR(ns int, cfg workload.IORConfig) workload.IORResult {
	cfg.Transport = c.Transport(ns)
	if cfg.Placer == nil {
		cfg.Placer = workload.RandomPlacer(c.Torus, c.Cfg.Seed)
	}
	return workload.RunIOR(c.Namespaces[ns], cfg)
}

// WorkflowResult compares the scientific-workflow cost under the two
// architectures (E6): a simulation writes its output, then an analysis
// platform consumes it.
type WorkflowResult struct {
	WriteTime    sim.Time
	TransferTime sim.Time // zero in the data-centric model
	ReadTime     sim.Time
	Total        sim.Time
	BytesMoved   int64 // extra inter-system traffic (exclusive model)
}

// DataCentricWorkflow runs the workflow on one shared namespace: the
// analysis reads the simulation's output in place.
func DataCentricWorkflow(fs *lustre.FS, dataBytes int64, writers, readers int) WorkflowResult {
	eng := fs.Engine()
	var res WorkflowResult
	files := writeDataset(fs, "shared/sim", dataBytes, writers, &res)
	start := eng.Now()
	readDataset(fs, files, readers)
	eng.Run()
	res.ReadTime = eng.Now() - start
	res.Total = res.WriteTime + res.ReadTime
	return res
}

// ExclusiveWorkflow runs the workflow across two machine-exclusive
// namespaces: write to the simulation PFS, copy through a data-transfer
// node at dtnBps, then read from the analysis PFS.
func ExclusiveWorkflow(simFS, vizFS *lustre.FS, dataBytes int64, writers, readers int, dtnBps float64) WorkflowResult {
	eng := simFS.Engine()
	var res WorkflowResult
	writeDataset(simFS, "excl/sim", dataBytes, writers, &res)

	// DTN copy: read from simFS and write to vizFS through a
	// bandwidth-capped mover.
	start := eng.Now()
	mover := lustre.NewClient(-10, topology.Coord{}, simFS, lustre.NullTransport{Eng: eng})
	sink := lustre.NewClient(-11, topology.Coord{}, vizFS, lustre.NullTransport{Eng: eng})
	var copied *lustre.File
	vizFS.Create("excl/copy", 4, func(f *lustre.File) { copied = f })
	eng.Run()
	var srcFile *lustre.File
	simFS.Open("excl/sim/rank0000000", func(f *lustre.File) { srcFile = f })
	eng.Run()
	if srcFile == nil {
		panic("center: exclusive workflow lost its dataset") //simlint:allow no-library-panic can't-happen internal invariant: exclusive workflows pin their dataset
	}
	// The DTN is the bottleneck: cap the copy at dtnBps by pacing
	// chunked reads/writes.
	chunk := int64(64 << 20)
	remaining := dataBytes
	var step func()
	step = func() {
		if remaining <= 0 {
			return
		}
		n := chunk
		if n > remaining {
			n = remaining
		}
		remaining -= n
		floor := sim.FromSeconds(float64(n) / dtnBps)
		issued := eng.Now()
		mover.ReadStream(srcFile, n, 1<<20, false, func(int64) {
			sink.WriteStream(copied, n, 1<<20, func(int64) {
				elapsed := eng.Now() - issued
				if elapsed < floor {
					eng.After(floor-elapsed, step)
				} else {
					step()
				}
			})
		})
	}
	step()
	eng.Run()
	res.TransferTime = eng.Now() - start
	res.BytesMoved = dataBytes

	start = eng.Now()
	readDataset(vizFS, []*lustre.File{copied}, readers)
	eng.Run()
	res.ReadTime = eng.Now() - start
	res.Total = res.WriteTime + res.TransferTime + res.ReadTime
	return res
}

func writeDataset(fs *lustre.FS, dir string, dataBytes int64, writers int, res *WorkflowResult) []*lustre.File {
	eng := fs.Engine()
	files := make([]*lustre.File, writers)
	clients := make([]*lustre.Client, writers)
	for i := 0; i < writers; i++ {
		i := i
		clients[i] = lustre.NewClient(i, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
		fs.Create(fmt.Sprintf("%s/rank%07d", dir, i), 4, func(f *lustre.File) { files[i] = f })
	}
	eng.Run()
	start := eng.Now()
	per := dataBytes / int64(writers)
	for i, cl := range clients {
		cl.WriteStream(files[i], per, 1<<20, nil)
	}
	eng.Run()
	res.WriteTime = eng.Now() - start
	return files
}

func readDataset(fs *lustre.FS, files []*lustre.File, readers int) {
	eng := fs.Engine()
	for r := 0; r < readers; r++ {
		cl := lustre.NewClient(100+r, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
		f := files[r%len(files)]
		size := f.Size() / int64(readers/len(files)+1)
		if size < 1<<20 {
			size = 1 << 20
		}
		cl.ReadStream(f, size, 1<<20, false, nil)
	}
}

// MetadataLoadResult reports the E11 namespace experiment.
type MetadataLoadResult struct {
	OpsPerSec   float64
	MeanWait    sim.Time
	Utilization float64
}

// MetadataStorm drives a create+stat storm (files each created then
// statted) against the namespaces round-robin and reports aggregate
// metadata throughput. With one namespace the single MDS saturates;
// splitting the same hardware into two namespaces doubles the ceiling.
func MetadataStorm(namespaces []*lustre.FS, files int, concurrency int) MetadataLoadResult {
	eng := namespaces[0].Engine()
	start := eng.Now()
	sim.Workers(files, concurrency, func(w, i int, next func()) {
		fs := namespaces[i%len(namespaces)]
		fs.Create(fmt.Sprintf("storm/w%d/f%07d", w, i), 1, func(f *lustre.File) {
			fs.Stat(f, next)
		})
	}, nil)
	eng.Run()
	dur := eng.Now() - start
	res := MetadataLoadResult{}
	if dur > 0 {
		res.OpsPerSec = float64(files*2) / dur.Seconds()
	}
	var wait sim.Time
	var util float64
	for _, fs := range namespaces {
		wait += fs.MDS.MeanWait()
		util += fs.MDS.Utilization()
	}
	res.MeanWait = wait / sim.Time(len(namespaces))
	res.Utilization = util / float64(len(namespaces))
	return res
}
