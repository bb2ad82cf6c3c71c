package chaos

import (
	"fmt"

	"spiderfs/internal/center"
	"spiderfs/internal/disk"
	"spiderfs/internal/failure"
	"spiderfs/internal/integrity"
	"spiderfs/internal/ledger"
	"spiderfs/internal/lustre"
	"spiderfs/internal/monitor"
	"spiderfs/internal/netsim"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/topology"
)

// Config declares a chaos campaign: which center to build, which
// resilience features are armed, and the composition of scripted and
// stochastic fault processes to drive against it. Every process draws
// from its own named split of the seed, so the fault schedule is
// identical between a featured and an ablated run of the same seed —
// the property the outage-ledger comparison relies on.
type Config struct {
	Seed     uint64
	Duration sim.Time

	// Center shape (see center.Config).
	Scale      int
	Namespaces int
	Small      bool

	// Resilience features under test. Ablated() clears both.
	Imperative bool // imperative recovery (§IV-D)
	ARN        bool // asymmetric router notification (§IV-D)

	// Stochastic disk failures with replace-and-rebuild.
	DiskAFR      float64
	ReplaceDelay sim.Time
	RebuildChunk int64
	RebuildPause sim.Time

	// OSS crash + failover process (Poisson, mean interval per center).
	OSSCrashInterval sim.Time

	// LNET router death bursts; CableCutFraction of the kills are
	// attributed to a cut IB cable (the fault cascades cable -> router
	// through the failure-domain graph).
	RouterBurstInterval sim.Time
	RouterBurstSize     int
	RouterRepair        sim.Time
	CableCutFraction    float64

	// In-place cable degradation (§IV-A): a router uplink drops to
	// DegradeFrac of nominal bandwidth until repaired.
	CableDegradeInterval sim.Time
	CableDegradeFrac     float64
	CableRepair          sim.Time

	// Data-integrity plane (§IV-E). MediaFaults arms rate-driven latent
	// media errors (drive-reported UREs and silent bit rot) on every
	// member disk; CorruptionStormAt sprays CorruptionStormErrors silent
	// sectors uniformly across the fleet (a firmware-bug-class event); a
	// positive ScrubInterval runs a background scrubber over every RAID
	// group with the rebuild-style batch/pause throttle. Foreground
	// reads verify stripe checksums under raid's default policy.
	MediaFaults           disk.FaultConfig
	CorruptionStormAt     sim.Time
	CorruptionStormErrors int
	ScrubInterval         sim.Time
	ScrubBatch            int64
	ScrubPause            sim.Time

	// Scripted MDS outage against namespace 0 (zero At disables).
	MDSOutageAt       sim.Time
	MDSOutageDuration sim.Time

	// Scripted enclosure loss during rebuild against namespace 0's first
	// couplet (zero At disables): a disk is replaced and rebuilding when
	// an enclosure housing one member of every group drops — the §IV-E
	// compounding, survivable under the Spider II 10x1 layout.
	EnclosureLossAt sim.Time
	EnclosureRepair sim.Time

	// Probe pulses measure delivered write throughput through the full
	// client -> fabric -> OSS -> RAID path at a fixed cadence, so the
	// report can quantify degraded operation, not just downtime.
	ProbeInterval sim.Time
	ProbeBytes    int64

	// LedgerEpoch is the anchoring cadence of the operations ledger
	// (internal/ledger): every monitor event, operator repair action,
	// and scrub escalation is appended as a hash-chained entry, and the
	// accumulated batch is sealed under a Merkle root each time an entry
	// crosses into a new epoch. Zero means the ledger default (one
	// anchor per simulated hour). The ledger is an observer — it
	// schedules no events and draws no randomness — so arming or
	// re-cadencing it never perturbs the fault schedule, and its root
	// sequence extends the campaign fingerprint.
	LedgerEpoch sim.Time

	// TraceEvents arms the engine's event-trace audit: the report's
	// EventTrace/TraceEvents fields then fingerprint every fired event's
	// (time, seq) pair, so two runs can be compared at event granularity
	// rather than only through the aggregated report fingerprint.
	TraceEvents bool

	// Tracer, when set, is attached to the center and handed to the
	// probe clients, so sampled probe RPCs are recorded end to end by
	// the spantrace plane (retry storms, OSS stalls, reroutes, rebuild
	// interference). The tracer never perturbs the run: the
	// observer-effect tests compare EventTrace with and without it.
	Tracer *spantrace.Tracer
}

// DefaultConfig is the 7-day full-scale campaign over both namespaces
// with the funded resilience features armed.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:     seed,
		Duration: 7 * sim.Day,

		Scale:      1,
		Namespaces: 2,

		Imperative: true,
		ARN:        true,

		DiskAFR:      0.03,
		ReplaceDelay: 4 * sim.Hour,
		RebuildChunk: 1 << 16,
		RebuildPause: 10 * sim.Second,

		OSSCrashInterval: 12 * sim.Hour,

		MediaFaults:           disk.FaultConfig{UREPerGBRead: 0.0005, SilentPerGBWritten: 0.001},
		CorruptionStormAt:     4 * sim.Day,
		CorruptionStormErrors: 400,
		// Scrub quanta sized for 2 TB members (~15M stripes per group,
		// 2,016 groups): 8 GiB batches every 30 min walk a full device
		// in ~5 days — the realistic background-scrub duty cycle — while
		// keeping the campaign's event count bounded. The quick config
		// below re-tightens all three for its 2 GiB members.
		ScrubInterval: 12 * sim.Hour,
		ScrubBatch:    1 << 16,
		ScrubPause:    30 * sim.Minute,

		RouterBurstInterval: 24 * sim.Hour,
		RouterBurstSize:     3,
		RouterRepair:        2 * sim.Hour,
		CableCutFraction:    0.3,

		CableDegradeInterval: 12 * sim.Hour,
		CableDegradeFrac:     0.25,
		CableRepair:          6 * sim.Hour,

		MDSOutageAt:       3*sim.Day + 5*sim.Hour,
		MDSOutageDuration: 20 * sim.Minute,

		EnclosureLossAt: 2 * sim.Day,
		EnclosureRepair: 4 * sim.Hour,

		ProbeInterval: 2 * sim.Hour,
		ProbeBytes:    64 << 20,

		LedgerEpoch: sim.Hour,
	}
}

// QuickConfig is a one-day campaign over the small test center, dense
// enough that every fault process fires — examples and tests use it.
func QuickConfig(seed uint64) Config {
	c := DefaultConfig(seed)
	c.Duration = sim.Day
	c.Small = true
	// The small center has ~320 drives; the production AFR would deliver
	// roughly zero failures per simulated day, so run it absurdly hot (as
	// the operations example does) to see the whole menu in one day.
	c.DiskAFR = 8
	c.ReplaceDelay = 30 * sim.Minute
	c.OSSCrashInterval = 3 * sim.Hour
	c.RouterBurstInterval = 6 * sim.Hour
	// A quarter of the 64-router fleet per burst, so probe traffic
	// reliably lands on dead routers and the ARN ablation has teeth.
	c.RouterBurstSize = 16
	c.RouterRepair = 90 * sim.Minute
	c.CableDegradeInterval = 5 * sim.Hour
	c.CableRepair = 2 * sim.Hour
	c.MDSOutageAt = 14 * sim.Hour
	c.MDSOutageDuration = 10 * sim.Minute
	// Media wear hot enough that scrub passes find and repair real
	// defects within the single simulated day.
	c.MediaFaults = disk.FaultConfig{UREPerGBRead: 0.02, SilentPerGBWritten: 0.05}
	c.CorruptionStormAt = 8 * sim.Hour
	c.CorruptionStormErrors = 300
	c.ScrubInterval = 2 * sim.Hour
	c.ScrubBatch = 512
	c.ScrubPause = 500 * sim.Millisecond
	c.EnclosureLossAt = 5 * sim.Hour
	c.EnclosureRepair = 2 * sim.Hour
	c.ProbeInterval = sim.Hour
	c.ProbeBytes = 16 << 20
	// The small center's 2 GB disks still take a while to rebuild; keep
	// batches small so rebuilds interleave with probe traffic.
	c.RebuildChunk = 1 << 12
	c.RebuildPause = 5 * sim.Second
	return c
}

// Ablated returns the configuration with both funded resilience
// features disarmed — the baseline for the outage-ledger comparison.
func (c Config) Ablated() Config {
	c.Imperative = false
	c.ARN = false
	return c
}

// campaign is the run state.
type campaign struct {
	cfg    Config
	c      *center.Center
	eng    *sim.Engine
	graph  *Graph
	ledger *Ledger        // per-component downtime stats (MTBF/MTTR)
	ops    *ledger.Ledger // tamper-evident operations ledger
	coal   *monitor.Coalescer

	grpName   map[*raid.Group]string
	injectors []*failure.Injector
	probers   []*lustre.Client
	scrubbers []*integrity.Scrubber
	degraded  map[int]bool // router-uplink index -> currently degraded
	uplinks   []*netsim.Link

	rep *Report
}

// Run executes the campaign and returns its report. The run is
// deterministic: the same configuration (seed included) produces a
// bit-identical report.
func Run(cfg Config) *Report {
	if cfg.Duration <= 0 {
		panic("chaos: campaign needs a positive duration") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	cc := center.New(center.Config{
		Scale: cfg.Scale, Namespaces: cfg.Namespaces, Seed: cfg.Seed,
		Small: cfg.Small, UseFabric: true, RouteMode: netsim.RouteFGR,
	})
	cc.Fabric.SetNotification(cfg.ARN)
	if cfg.Tracer != nil {
		cc.AttachTracer(cfg.Tracer)
	}

	eng := cc.Eng
	var th *sim.TraceHash
	if cfg.TraceEvents {
		th = sim.NewTraceHash()
		eng.SetTrace(th.Observe)
	}
	downLedger := NewLedger(eng)
	graph := NewGraph(eng, downLedger)
	p := &campaign{
		cfg: cfg, c: cc, eng: eng, graph: graph, ledger: downLedger,
		ops:      ledger.New(ledger.Config{Epoch: cfg.LedgerEpoch}),
		coal:     monitor.NewCoalescer(30 * sim.Second),
		grpName:  map[*raid.Group]string{},
		degraded: map[int]bool{},
		uplinks:  cc.Fabric.RouterUpLinks(),
		rep: &Report{
			Seed: cfg.Seed, Window: cfg.Duration,
			Imperative: cfg.Imperative, ARN: cfg.ARN,
			MinProbeMBps: -1,
		},
	}
	graph.Events = p.ingest

	p.buildGraph()
	p.startDiskFailures()
	p.startOSSCrashes()
	p.startRouterBursts()
	p.startCableDegradation()
	p.scheduleMDSOutage()
	p.scheduleEnclosureLoss()
	p.scheduleCorruptionStorm()
	p.startScrubbers()
	p.startProbes()

	eng.RunUntil(cfg.Duration)
	for _, in := range p.injectors {
		in.Stop()
	}
	for _, s := range p.scrubbers {
		s.Stop()
	}
	downLedger.Close()
	p.ops.Close()
	p.coal.Close()
	p.finishReport()
	if th != nil {
		p.rep.EventTrace = th.Sum()
		p.rep.TraceEvents = th.Events()
	}
	return p.rep
}

// ingest forwards an event into the incident coalescer and appends it
// to the operations ledger (events arrive in time order because
// everything runs on one engine).
func (p *campaign) ingest(ev monitor.Event) {
	p.coal.Ingest(ev)
	p.opAppend(ev.At, ev.Component, ev.Class.String(), ev.Kind, "")
}

// opAppend records one ledger entry. The ledger refuses out-of-order
// or post-close appends as errors, never panics; on one engine those
// cannot happen, so a refusal is counted and surfaced in the report
// (and would trip the BENCH_ledger gate) rather than dropped silently.
func (p *campaign) opAppend(at sim.Time, actor, class, action, detail string) {
	if err := p.ops.Append(at, actor, class, action, detail); err != nil {
		p.rep.LedgerDrops++
	}
}

func (p *campaign) emit(component string, class monitor.EventClass, kind string) {
	p.ingest(monitor.Event{At: p.eng.Now(), Component: component, Class: class, Kind: kind})
	p.note("%v %s %s", p.eng.Now(), component, kind)
}

func (p *campaign) note(format string, args ...interface{}) {
	if len(p.rep.Timeline) < maxTimeline {
		p.rep.Timeline = append(p.rep.Timeline, fmt.Sprintf(format, args...))
	}
}

func nsName(fs *lustre.FS) string             { return fs.Name }
func mdsName(fs *lustre.FS) string            { return fs.Name + "-mds" }
func ossName(fs *lustre.FS, i int) string     { return fmt.Sprintf("%s-oss%d", fs.Name, i) }
func ostName(fs *lustre.FS, i int) string     { return fmt.Sprintf("%s-ost%d", fs.Name, i) }
func grpNodeName(fs *lustre.FS, i int) string { return fmt.Sprintf("%s-grp%d", fs.Name, i) }
func routerName(rid int) string               { return fmt.Sprintf("rtr%d", rid) }
func cableName(rid int) string                { return fmt.Sprintf("cable%d", rid) }

// buildGraph registers the center's failure domains: per namespace the
// MDS, the namespace depending on it, every OSS, and every OST
// depending on its RAID group, its serving OSS, and the MDS; plus one
// cable -> router chain per LNET router.
func (p *campaign) buildGraph() {
	media := rng.New(p.cfg.Seed).Split("chaos-media")
	for ns, fs := range p.c.Namespaces {
		p.graph.Add(mdsName(fs), KindMDS)
		p.graph.Add(nsName(fs), KindNamespace, mdsName(fs))
		for i := range fs.OSSes {
			p.graph.Add(ossName(fs, i), KindOSS)
		}
		groups := p.c.GroupsOf(ns)
		for i, g := range groups {
			gn := grpNodeName(fs, i)
			p.grpName[g] = gn
			p.graph.Add(gn, KindGroup)
			p.graph.Add(ostName(fs, i), KindOST, gn, ossName(fs, fs.OSSOf(i)), mdsName(fs))
			g.RebuildChunk = p.cfg.RebuildChunk
			g.RebuildPause = p.cfg.RebuildPause
			if p.cfg.MediaFaults.Enabled() {
				for j, d := range g.Disks() {
					d.SetFaultInjection(p.cfg.MediaFaults, media.Split(fmt.Sprintf("%s-d%d", gn, j)))
				}
			}
			g.OnStripeLoss = func(int64) {
				// A stripe whose defects exceeded parity: latent data
				// loss, surfaced to monitoring like any other fault.
				p.emit(gn, monitor.Hardware, "latent-data-loss")
			}
		}
	}
	for rid := 0; rid < p.c.Fabric.NumRouters(); rid++ {
		p.graph.Add(cableName(rid), KindCable)
		p.graph.Add(routerName(rid), KindRouter, cableName(rid))
	}
}

func (p *campaign) startDiskFailures() {
	if p.cfg.DiskAFR <= 0 {
		return
	}
	for ns := range p.c.Namespaces {
		in := failure.NewInjector(p.eng, p.c.GroupsOf(ns), failure.DiskFailureConfig{
			AnnualFailureRate: p.cfg.DiskAFR, ReplaceDelay: p.cfg.ReplaceDelay,
		}, rng.New(p.cfg.Seed).Split(fmt.Sprintf("chaos-disks-%d", ns)))
		in.Events = p.ingest
		in.OnGroupFailed = func(g *raid.Group) {
			p.note("%v %s raid group lost (data loss)", p.eng.Now(), p.grpName[g])
			p.graph.Fail(p.grpName[g])
		}
		in.Start()
		p.injectors = append(p.injectors, in)
	}
}

// startOSSCrashes runs the Poisson OSS crash-and-failover process. A
// draw landing on a server already down is a skipped fault (counted),
// not a panic: FailOSS reports the condition as an error.
func (p *campaign) startOSSCrashes() {
	if p.cfg.OSSCrashInterval <= 0 {
		return
	}
	src := rng.New(p.cfg.Seed).Split("chaos-oss")
	rec := lustre.DefaultRecovery(p.cfg.Imperative)
	var next func()
	next = func() {
		p.eng.After(sim.FromSeconds(src.Exp(1/p.cfg.OSSCrashInterval.Seconds())), func() {
			ns := src.Intn(len(p.c.Namespaces))
			fs := p.c.Namespaces[ns]
			i := src.Intn(len(fs.OSSes))
			name := ossName(fs, i)
			if err := lustre.FailOSS(fs, i, rec, func(outage sim.Time) {
				p.graph.Recover(name)
			}); err != nil {
				p.rep.SkippedFaults++
			} else {
				p.rep.OSSCrashes++
				p.emit(name, monitor.Software, "oss-crash")
				p.graph.Fail(name)
			}
			next()
		})
	}
	next()
}

// startRouterBursts kills batches of LNET routers. A fraction of the
// kills are attributed to a cut cable, exercising the cable -> router
// cascade; the rest are direct router deaths (LBUG-class). Either way
// the fabric stops routing through them until the repair.
func (p *campaign) startRouterBursts() {
	if p.cfg.RouterBurstInterval <= 0 || p.cfg.RouterBurstSize <= 0 {
		return
	}
	f := p.c.Fabric
	src := rng.New(p.cfg.Seed).Split("chaos-routers")
	var next func()
	next = func() {
		p.eng.After(sim.FromSeconds(src.Exp(1/p.cfg.RouterBurstInterval.Seconds())), func() {
			p.rep.RouterBursts++
			for k := 0; k < p.cfg.RouterBurstSize; k++ {
				rid := -1
				for tries := 0; tries < 4*f.NumRouters(); tries++ {
					cand := src.Intn(f.NumRouters())
					if !f.RouterFailed(cand) {
						rid = cand
						break
					}
				}
				if rid < 0 {
					break // entire fleet already dead
				}
				f.FailRouter(rid)
				p.rep.RoutersKilled++
				root := routerName(rid)
				if src.Bool(p.cfg.CableCutFraction) {
					root = cableName(rid)
					p.rep.CableCuts++
					p.emit(root, monitor.Hardware, "cable-cut")
				} else {
					p.emit(root, monitor.Software, "router-lbug")
				}
				p.graph.Fail(root)
				deadRID, deadRoot := rid, root
				p.eng.After(p.cfg.RouterRepair, func() {
					f.RecoverRouter(deadRID)
					p.graph.Recover(deadRoot)
					p.opAppend(p.eng.Now(), deadRoot, "operator", "router-repaired", "")
				})
			}
			next()
		})
	}
	next()
}

// startCableDegradation drops a router uplink to a fraction of its
// nominal bandwidth (the §IV-A degraded-cable failure mode). The
// link stays up — this degrades throughput without downtime.
func (p *campaign) startCableDegradation() {
	if p.cfg.CableDegradeInterval <= 0 || len(p.uplinks) == 0 {
		return
	}
	net := p.c.Fabric.Net
	src := rng.New(p.cfg.Seed).Split("chaos-cables")
	var next func()
	next = func() {
		p.eng.After(sim.FromSeconds(src.Exp(1/p.cfg.CableDegradeInterval.Seconds())), func() {
			idx := src.Intn(len(p.uplinks))
			if !p.degraded[idx] {
				p.degraded[idx] = true
				l := p.uplinks[idx]
				net.Degrade(l, p.cfg.CableDegradeFrac)
				p.rep.CableDegradations++
				p.emit(l.Name(), monitor.Hardware, "hca-symbol-errors")
				p.eng.After(p.cfg.CableRepair, func() {
					net.Restore(l)
					delete(p.degraded, idx)
				})
			}
			next()
		})
	}
	next()
}

func (p *campaign) scheduleMDSOutage() {
	if p.cfg.MDSOutageAt <= 0 || p.cfg.MDSOutageDuration <= 0 {
		return
	}
	fs := p.c.Namespaces[0]
	p.eng.At(p.cfg.MDSOutageAt, func() {
		p.rep.MDSOutages++
		p.emit(mdsName(fs), monitor.Software, "mds-outage")
		p.graph.Fail(mdsName(fs))
		p.eng.After(p.cfg.MDSOutageDuration, func() {
			p.graph.Recover(mdsName(fs))
			p.opAppend(p.eng.Now(), mdsName(fs), "operator", "mds-recovered", "")
		})
	})
}

// scheduleEnclosureLoss replays the §IV-E compounding against namespace
// 0's first couplet under the corrected Spider II layout: a rebuild is
// in flight when an enclosure drops, taking one member of every group.
// Each group degrades but survives (10x1 housing), and repair crews
// restore the lost members with fresh drives.
func (p *campaign) scheduleEnclosureLoss() {
	if p.cfg.EnclosureLossAt <= 0 {
		return
	}
	layout := raid.Spider2Layout()
	src := rng.New(p.cfg.Seed).Split("chaos-enclosure")
	p.eng.At(p.cfg.EnclosureLossAt, func() {
		cp := p.c.CoupletsOf(0, layout)[0]
		groups := cp.Groups()
		g0 := groups[0]
		if g0.State() == raid.Healthy {
			g0.FailDisk(0)
			p.emit(p.grpName[g0]+"-disk0", monitor.Hardware, "disk-failure")
			repl := disk.New(p.eng, 2_000_000, g0.Disks()[0].Config(), disk.Nominal(), src.Split("repl0"))
			g0.StartRebuild(0, repl, nil)
		}
		p.eng.After(sim.Hour, func() {
			before := make([]raid.State, len(groups))
			for i, g := range groups {
				before[i] = g.State()
			}
			cp.FailEnclosure(1)
			p.emit("enclosure1", monitor.Hardware, "enclosure-loss")
			for i, g := range groups {
				if g.State() == raid.Failed && before[i] != raid.Failed {
					p.rep.EnclosureGroupsFailed++
					p.graph.Fail(p.grpName[g])
				}
			}
			// Repair: the enclosure's drive slot (member 1 of every group
			// under the 10x1 layout) is restocked once crews swap the
			// enclosure. Groups mid-rebuild on another member are picked up
			// by a second sweep. A group degraded by some other member, or
			// whose slot was already rebuilt, has nothing to restock here.
			member := 1
			repair := func(tag string) func() {
				return func() {
					restocked := 0
					for i, g := range groups {
						if g.State() != raid.Degraded || !g.Offline(member) {
							continue
						}
						repl := disk.New(p.eng, 2_100_000+i, g.Disks()[member].Config(),
							disk.Nominal(), src.Split(fmt.Sprintf("%s-%d", tag, i)))
						g.StartRebuild(member, repl, nil)
						restocked++
					}
					p.opAppend(p.eng.Now(), "enclosure1", "operator", "repair-sweep-"+tag,
						fmt.Sprintf("%d degraded groups restocked", restocked))
				}
			}
			p.eng.After(p.cfg.EnclosureRepair, repair("r1"))
			p.eng.After(2*p.cfg.EnclosureRepair+6*sim.Hour, repair("r2"))
		})
	})
}

// scheduleCorruptionStorm sprays silent bit rot uniformly across every
// member disk in the fleet — the firmware-bug-class event that seeds
// the latent errors scrubbing exists to find before rebuilds do.
func (p *campaign) scheduleCorruptionStorm() {
	if p.cfg.CorruptionStormAt <= 0 || p.cfg.CorruptionStormErrors <= 0 {
		return
	}
	src := rng.New(p.cfg.Seed).Split("chaos-corruption")
	p.eng.At(p.cfg.CorruptionStormAt, func() {
		var dsks []*disk.Disk
		for ns := range p.c.Namespaces {
			for _, g := range p.c.GroupsOf(ns) {
				dsks = append(dsks, g.Disks()...)
			}
		}
		for k := 0; k < p.cfg.CorruptionStormErrors; k++ {
			d := dsks[src.Intn(len(dsks))]
			d.InjectError(src.Int63n(d.Config().Capacity), disk.Silent)
		}
		p.rep.CorruptionStorms++
		p.emit("fleet", monitor.Hardware, "corruption-storm")
	})
}

// startScrubbers arms one background scrubber per RAID group. The
// scrubber draws no randomness, so enabling it perturbs no fault
// schedule — only the I/O it issues and the repairs it makes.
func (p *campaign) startScrubbers() {
	if p.cfg.ScrubInterval <= 0 {
		return
	}
	for ns := range p.c.Namespaces {
		for _, g := range p.c.GroupsOf(ns) {
			s := integrity.New(p.eng, g, integrity.Config{
				BatchStripes: p.cfg.ScrubBatch,
				BatchPause:   p.cfg.ScrubPause,
				PassInterval: p.cfg.ScrubInterval,
			})
			gn := p.grpName[g]
			s.Escalate = func(lost int) {
				p.opAppend(p.eng.Now(), gn, "integrity", "scrub-escalation",
					fmt.Sprintf("%d stripes beyond parity", lost))
			}
			s.Start()
			p.scrubbers = append(p.scrubbers, s)
		}
	}
}

// startProbes pulses a striped write through the full I/O path of every
// namespace on a fixed cadence and records delivered throughput. A
// probe against a namespace whose MDS is down is recorded as an
// unavailable sample; a probe stalled past the end of the window (OSS
// recovery pending, or its flow dropped by a dead router fleet) counts
// as stalled.
func (p *campaign) startProbes() {
	if p.cfg.ProbeInterval <= 0 || p.cfg.ProbeBytes <= 0 {
		return
	}
	for ns, fs := range p.c.Namespaces {
		ns, fs := ns, fs
		cl := lustre.NewClient(9000+ns, topology.Coord{X: 1, Y: 1, Z: 1}, fs, p.c.Transport(ns))
		cl.RPCTimeout = 100 * sim.Second
		cl.BackoffSrc = rng.New(p.cfg.Seed).Split(fmt.Sprintf("chaos-backoff-%d", ns))
		cl.Tracer = p.cfg.Tracer
		p.probers = append(p.probers, cl)
		pulse := 0
		var tick func()
		tick = func() {
			k := pulse
			pulse++
			if p.graph.Down(nsName(fs)) {
				p.rep.UnavailableProbes++
			} else {
				p.rep.ProbesLaunched++
				start := p.eng.Now()
				path := fmt.Sprintf("chaos-probe/ns%d/p%05d", ns, k)
				fs.Create(path, 4, func(f *lustre.File) {
					cl.WriteStream(f, p.cfg.ProbeBytes, 1<<20, func(n int64) {
						dur := p.eng.Now() - start
						if dur > 0 {
							p.rep.probeSamples = append(p.rep.probeSamples,
								float64(n)/dur.Seconds()/1e6)
						}
						p.rep.Probes++
						fs.Unlink(path, nil)
					})
				})
			}
			p.eng.After(p.cfg.ProbeInterval, tick)
		}
		tick()
	}
}

func (p *campaign) finishReport() {
	r := p.rep
	f := p.c.Fabric
	r.DroppedFlows = f.DroppedFlows
	r.StalledSends = f.StalledSends
	r.StallTime = f.StallTime
	r.Cascades = p.graph.Cascades
	for _, in := range p.injectors {
		r.DiskFailures += in.Failures
		r.Rebuilds += in.Rebuilds
		r.GroupsLost += in.DataLoss
	}
	for _, cl := range p.probers {
		r.RPCTimeouts += cl.RPCTimeouts
		r.RPCRetries += cl.RPCRetries
		r.BackoffWaits += cl.BackoffWaits
		r.BackoffWait += cl.BackoffWait
	}
	for ns, fs := range p.c.Namespaces {
		for _, g := range p.c.GroupsOf(ns) {
			r.GroupIOErrors += g.IOErrors
			r.UREsDetected += g.UREsDetected
			r.ChecksumMismatches += g.ChecksumMismatches
			r.RepairedChunks += g.RepairedChunks
			r.ScrubRepairs += g.ScrubRepairs
			r.UndetectedCorruptReads += g.UndetectedCorruptReads
			r.RebuildLatentHits += g.RebuildLatentHits
			r.LatentDataLoss += g.UnrecoverableStripes
			r.LostStripeReads += g.LostStripeReads
		}
		for _, s := range fs.OSSes {
			r.OSSDoubleFaults += s.DoubleFaults
		}
		for _, o := range fs.OSTs {
			r.ReadEIOs += o.ReadEIOs
		}
	}
	for _, s := range p.scrubbers {
		r.ScrubPasses += s.Passes
		r.ScrubbedStripes += s.ScannedStripes
		r.ScrubRebuildOverlaps += s.RebuildOverlaps
	}
	r.Incidents = len(p.coal.Incidents)
	for _, inc := range p.coal.Incidents {
		if inc.RootClass == monitor.Hardware {
			r.HardwareIncidents++
		}
	}
	r.LedgerEntries = p.ops.Len()
	r.LedgerAnchors = p.ops.AnchorCount()
	r.LedgerRoots = p.ops.Roots()
	r.LedgerHead = p.ops.Head()
	r.Ops = p.ops.Export()
	r.Components = p.ledger.Stats()
	nOST, _, ostDown := p.ledger.KindDowntime(KindOST)
	r.OSTs = nOST
	r.OSTDowntime = ostDown
	if nOST > 0 && r.Window > 0 {
		r.Availability = 1 - float64(ostDown)/(float64(nOST)*float64(r.Window))
	}
	r.ProbeStalls = r.ProbesLaunched - r.Probes
	if n := len(r.probeSamples); n > 0 {
		sum := 0.0
		min := r.probeSamples[0]
		for _, s := range r.probeSamples {
			sum += s
			if s < min {
				min = s
			}
		}
		r.MeanProbeMBps = sum / float64(n)
		r.MinProbeMBps = min
	} else {
		r.MinProbeMBps = 0
	}
}
