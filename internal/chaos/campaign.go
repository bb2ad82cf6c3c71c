package chaos

import (
	"fmt"
	"runtime"

	"spiderfs/internal/center"
	"spiderfs/internal/disk"
	"spiderfs/internal/failure"
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

// Config declares a chaos campaign: which center to build and which
// resilience features are armed. The fault and probe menu driven
// against it is a schedule picked by Small: the full schedule for the
// full-scale center, the quick one for the small center. Every process
// draws from its own named split of the seed, so the fault schedule is
// identical between a featured and an ablated run of the same seed —
// the property the featured-vs-ablated outage comparison relies on.
type Config struct {
	Seed     uint64
	Duration sim.Time

	// Center shape (see center.Config). Small also selects the quick
	// fault schedule.
	Scale      int
	Namespaces int
	Small      bool

	// Resilience features under test. Ablated() clears both.
	Imperative bool // imperative recovery (§IV-D)
	ARN        bool // asymmetric router notification (§IV-D)

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

// schedule is the composition of scripted and stochastic fault
// processes, and the probe cadence, a campaign drives against its
// center.
type schedule struct {
	// Stochastic disk failures with replace-and-rebuild.
	disks        failure.DiskFailureConfig
	rebuildChunk int64
	rebuildPause sim.Time

	// OSS crash + failover process (Poisson, mean interval per center).
	ossCrashInterval sim.Time

	// LNET router death bursts; cableCutFraction of the kills are
	// attributed to a cut IB cable.
	routerBurstInterval sim.Time
	routerBurstSize     int
	routerRepair        sim.Time

	// In-place cable degradation (§IV-A): a router uplink drops to
	// cableDegradeFrac of nominal bandwidth until repaired.
	cableDegradeInterval sim.Time
	cableRepair          sim.Time

	// Data-integrity plane (§IV-E). mediaFaults arms rate-driven latent
	// media errors (drive-reported UREs and silent bit rot) on every
	// member disk; corruptionStormAt sprays corruptionStormErrors silent
	// sectors uniformly across the fleet (a firmware-bug-class event); a
	// positive scrub.PassInterval runs a background scrubber over every
	// RAID group with the rebuild-style batch/pause throttle. Foreground
	// reads verify stripe checksums under raid's default policy.
	mediaFaults           disk.FaultConfig
	corruptionStormAt     sim.Time
	corruptionStormErrors int
	scrub                 raid.ScrubConfig

	// Scripted MDS outage against namespace 0.
	mdsOutageAt       sim.Time
	mdsOutageDuration sim.Time

	// Scripted enclosure loss during rebuild against namespace 0's first
	// couplet: a disk is replaced and rebuilding when an enclosure
	// housing one member of every group drops — the §IV-E compounding,
	// survivable under the Spider II 10x1 layout.
	enclosureLossAt sim.Time
	enclosureRepair sim.Time

	// Probe pulses measure delivered write throughput through the full
	// client -> fabric -> OSS -> RAID path at a fixed cadence, so the
	// report can quantify degraded operation, not just downtime.
	probeInterval sim.Time
	probeBytes    int64
}

// fullSchedule is the 7-day full-scale campaign's menu.
var fullSchedule = schedule{
	disks:        failure.DiskFailureConfig{AnnualFailureRate: 0.03, ReplaceDelay: 4 * sim.Hour},
	rebuildChunk: 1 << 16,
	rebuildPause: 10 * sim.Second,

	ossCrashInterval: 12 * sim.Hour,

	mediaFaults:           disk.FaultConfig{UREPerGBRead: 0.0005, SilentPerGBWritten: 0.001},
	corruptionStormAt:     4 * sim.Day,
	corruptionStormErrors: 400,
	// Scrub quanta sized for 2 TB members (~15M stripes per group,
	// 2,016 groups): 8 GiB batches every 30 min walk a full device
	// in ~5 days — the realistic background-scrub duty cycle — while
	// keeping the campaign's event count bounded. The quick schedule
	// below re-tightens all three for its 2 GiB members.
	scrub: raid.ScrubConfig{
		PassInterval: 12 * sim.Hour,
		BatchStripes: 1 << 16,
		BatchPause:   30 * sim.Minute,
	},

	routerBurstInterval: 24 * sim.Hour,
	routerBurstSize:     3,
	routerRepair:        2 * sim.Hour,

	cableDegradeInterval: 12 * sim.Hour,
	cableRepair:          6 * sim.Hour,

	mdsOutageAt:       3*sim.Day + 5*sim.Hour,
	mdsOutageDuration: 20 * sim.Minute,

	enclosureLossAt: 2 * sim.Day,
	enclosureRepair: 4 * sim.Hour,

	probeInterval: 2 * sim.Hour,
	probeBytes:    64 << 20,
}

// quickSchedule is dense enough that every fault process fires within
// one day on the small test center.
var quickSchedule = schedule{
	// The small center has ~320 drives; the production AFR would deliver
	// roughly zero failures per simulated day, so run it absurdly hot (as
	// the operations example does) to see the whole menu in one day.
	disks:               failure.DiskFailureConfig{AnnualFailureRate: 8, ReplaceDelay: 30 * sim.Minute},
	ossCrashInterval:    3 * sim.Hour,
	routerBurstInterval: 6 * sim.Hour,
	// A quarter of the 64-router fleet per burst, so probe traffic
	// reliably lands on dead routers and the ARN ablation has teeth.
	routerBurstSize:      16,
	routerRepair:         90 * sim.Minute,
	cableDegradeInterval: 5 * sim.Hour,
	cableRepair:          2 * sim.Hour,
	mdsOutageAt:          14 * sim.Hour,
	mdsOutageDuration:    10 * sim.Minute,
	// Media wear hot enough that scrub passes find and repair real
	// defects within the single simulated day.
	mediaFaults:           disk.FaultConfig{UREPerGBRead: 0.02, SilentPerGBWritten: 0.05},
	corruptionStormAt:     8 * sim.Hour,
	corruptionStormErrors: 300,
	scrub: raid.ScrubConfig{
		PassInterval: 2 * sim.Hour,
		BatchStripes: 512,
		BatchPause:   500 * sim.Millisecond,
	},
	enclosureLossAt: 5 * sim.Hour,
	enclosureRepair: 2 * sim.Hour,
	probeInterval:   sim.Hour,
	probeBytes:      16 << 20,
	// The small center's 2 GB disks still take a while to rebuild; keep
	// batches small so rebuilds interleave with probe traffic.
	rebuildChunk: 1 << 12,
	rebuildPause: 5 * sim.Second,
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
	}
}

// QuickConfig is a one-day campaign over the small test center, under
// the quick schedule — examples and tests use it.
func QuickConfig(seed uint64) Config {
	c := DefaultConfig(seed)
	c.Duration = sim.Day
	c.Small = true
	return c
}

// MaxDays bounds the campaign window a caller may ask for, in simulated
// days: a month of incidents. `spidersim chaos -days` and a service
// chaos session refuse a window outside [0, MaxDays] before building
// anything, since a far longer one would run for hours (and
// sim.Time(days)*sim.Day overflows past ~106,751 days).
const MaxDays = 31

// CampaignConfig is the campaign `spidersim chaos` and a service chaos
// session run: QuickConfig, or DefaultConfig when full, with the window
// set to days when days is positive. Callers keep days within
// [0, MaxDays].
func CampaignConfig(seed uint64, full bool, days int) Config {
	c := QuickConfig(seed)
	if full {
		c = DefaultConfig(seed)
	}
	if days > 0 {
		c.Duration = sim.Time(days) * sim.Day
	}
	return c
}

// Ablated returns the configuration with both funded resilience
// features disarmed — the baseline for the outage comparison.
func (c Config) Ablated() Config {
	c.Imperative = false
	c.ARN = false
	return c
}

// campaign is the run state.
type campaign struct {
	cfg   Config
	sched schedule
	c     *center.Center
	eng   *sim.Engine
	graph *Graph // failure domains and each component's downtime
	// ops is the tamper-evident operations ledger, anchored once per
	// ledger.DefaultEpoch (a simulated hour). It schedules no events and
	// draws no randomness; its root sequence extends the fingerprint.
	ops  *ledger.Ledger
	coal *monitor.Coalescer

	// The graph's nodes as buildGraph made them: per namespace, per
	// router id (routers, cables) and per RAID group.
	spaces          []nsNodes
	routers, cables []*Node
	groups          map[*raid.Group]*Node

	injectors []*failure.Injector
	probers   []*lustre.Client
	scrubbers []*raid.Scrubber

	rep *Report
}

// nsNodes are one namespace's MDS, namespace and OSS nodes.
type nsNodes struct {
	mds, ns *Node
	oss     []*Node // indexed like the namespace's OSSes
}

// Run executes the campaign under the quick schedule when cfg.Small,
// else the full one, and returns its report. The run is deterministic:
// the same configuration (seed included) produces a bit-identical
// report.
func Run(cfg Config) *Report {
	if cfg.Small {
		return run(cfg, quickSchedule)
	}
	return run(cfg, fullSchedule)
}

// run executes the campaign under sched.
func run(cfg Config, sched schedule) *Report {
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
	graph := NewGraph(eng)
	p := &campaign{
		cfg: cfg, sched: sched, c: cc, eng: eng, graph: graph,
		ops:    ledger.New(ledger.Config{}),
		coal:   &monitor.Coalescer{},
		groups: map[*raid.Group]*Node{},
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
	graph.Close()
	p.ops.Close()
	p.coal.Close()
	if !cfg.Small {
		// A full-scale campaign ends holding its center and ledgers
		// (about 28 MB live). Collect once here, while they are still
		// reachable, so the next heap goal comes from that live set.
		// Otherwise the collector's one cycle per campaign lands where
		// its pacer puts it, sometimes across the return, where the
		// next campaign (the ablated run after the funded one) builds
		// its center inside that cycle and both centers are marked
		// live. The collection costs under 1% of a full-scale campaign;
		// a quick one is too short for it to pay.
		runtime.GC()
	}
	p.finishReport()
	p.rep.PeakPending = eng.PeakPending()
	p.rep.PendingWork = eng.PendingWork()
	net := p.c.Fabric.Net
	p.rep.EntriesWalked, p.rep.FlowsRerated, p.rep.RatesChanged = net.EntriesWalked, net.FlowsRerated, net.RatesChanged
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
// (and fails the ledger pins in TestCampaignLedgerDeterministic)
// rather than dropped silently.
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

// buildGraph registers the center's failure domains: per namespace the
// MDS, the namespace depending on it, every OSS, and every OST
// depending on its RAID group, its serving OSS, and the MDS; plus one
// cable -> router chain per LNET router. It names every node and keeps
// the nodes the fault processes address; nothing after it formats a
// node name.
//
// A drive's media stream, SplitIndex(gn+"-d", j), must stay the stream
// of Split(fmt.Sprintf("%s-d%d", gn, j)): the campaign fingerprints pin
// it.
func (p *campaign) buildGraph() {
	media := rng.New(p.cfg.Seed).Split("chaos-media")
	p.spaces = make([]nsNodes, len(p.c.Namespaces))
	for ns, fs := range p.c.Namespaces {
		mds := p.graph.Add(fs.Name+"-mds", KindMDS)
		oss := make([]*Node, len(fs.OSSes))
		p.spaces[ns] = nsNodes{mds: mds, ns: p.graph.Add(fs.Name, KindNamespace, mds), oss: oss}
		for i := range oss {
			oss[i] = p.graph.Add(fmt.Sprintf("%s-oss%d", fs.Name, i), KindOSS)
		}
		for i, g := range p.c.GroupsOf(ns) {
			gn := fmt.Sprintf("%s-grp%d", fs.Name, i)
			grp := p.graph.Add(gn, KindGroup)
			p.groups[g] = grp
			p.graph.Add(fmt.Sprintf("%s-ost%d", fs.Name, i), KindOST, grp, oss[fs.OSSOf(i)], mds)
			g.RebuildChunk = p.sched.rebuildChunk
			g.RebuildPause = p.sched.rebuildPause
			drive := gn + "-d"
			for j, d := range g.Disks() {
				src := media.SplitIndex(drive, j)
				d.SetFaultInjection(p.sched.mediaFaults, &src)
			}
			g.OnStripeLoss = func(int64) {
				// A stripe whose defects exceeded parity: latent data
				// loss, surfaced to monitoring like any other fault.
				p.emit(gn, monitor.Hardware, "latent-data-loss")
			}
		}
	}
	n := p.c.Fabric.NumRouters()
	p.routers, p.cables = make([]*Node, n), make([]*Node, n)
	for rid := range n {
		p.cables[rid] = p.graph.Add(fmt.Sprintf("cable%d", rid), KindCable)
		p.routers[rid] = p.graph.Add(fmt.Sprintf("rtr%d", rid), KindRouter, p.cables[rid])
	}
}

func (p *campaign) startDiskFailures() {
	for ns := range p.c.Namespaces {
		in := failure.NewInjector(p.eng, p.c.GroupsOf(ns), p.sched.disks,
			rng.New(p.cfg.Seed).Split(fmt.Sprintf("chaos-disks-%d", ns)))
		in.Events = p.ingest
		in.OnGroupFailed = func(g *raid.Group) {
			p.note("%v %s raid group lost (data loss)", p.eng.Now(), p.groups[g].Name)
			p.graph.Fail(p.groups[g])
		}
		in.Start()
		p.injectors = append(p.injectors, in)
	}
}

// startOSSCrashes runs the Poisson OSS crash-and-failover process. A
// draw landing on a server already down is a skipped fault (counted),
// not a panic: FailOSS reports the condition as an error.
func (p *campaign) startOSSCrashes() {
	src := rng.New(p.cfg.Seed).Split("chaos-oss")
	p.poisson(src, p.sched.ossCrashInterval, func() {
		ns := src.Intn(len(p.c.Namespaces))
		fs := p.c.Namespaces[ns]
		i := src.Intn(len(fs.OSSes))
		oss := p.spaces[ns].oss[i]
		if err := lustre.FailOSS(fs, i, p.cfg.Imperative, func(outage sim.Time) {
			p.graph.Recover(oss)
		}); err != nil {
			p.rep.SkippedFaults++
		} else {
			p.rep.OSSCrashes++
			p.emit(oss.Name, monitor.Software, "oss-crash")
			p.graph.Fail(oss)
		}
	})
}

// poisson runs fire at each arrival of a Poisson process whose gaps,
// of mean mean, are drawn from src. The gap to the next arrival is
// drawn after fire returns, so fire's own draws from src come first.
func (p *campaign) poisson(src *rng.Source, mean sim.Time, fire func()) {
	rate := 1 / mean.Seconds()
	var arrive func()
	arrive = func() {
		fire()
		p.eng.After(sim.FromSeconds(src.Exp(rate)), arrive)
	}
	p.eng.After(sim.FromSeconds(src.Exp(rate)), arrive)
}

// cableCutFraction of router kills are attributed to a cut IB cable
// (the fault cascades cable -> router through the failure-domain graph).
const cableCutFraction = 0.3

// startRouterBursts kills batches of LNET routers. A fraction of the
// kills are attributed to a cut cable, exercising the cable -> router
// cascade; the rest are direct router deaths (LBUG-class). Either way
// the fabric stops routing through them until the repair.
func (p *campaign) startRouterBursts() {
	f := p.c.Fabric
	src := rng.New(p.cfg.Seed).Split("chaos-routers")
	p.poisson(src, p.sched.routerBurstInterval, func() {
		p.rep.RouterBursts++
		for k := 0; k < p.sched.routerBurstSize; k++ {
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
			root := p.routers[rid]
			if src.Bool(cableCutFraction) {
				root = p.cables[rid]
				p.rep.CableCuts++
				p.emit(root.Name, monitor.Hardware, "cable-cut")
			} else {
				p.emit(root.Name, monitor.Software, "router-lbug")
			}
			p.graph.Fail(root)
			deadRID, deadRoot := rid, root
			p.eng.After(p.sched.routerRepair, func() {
				f.RecoverRouter(deadRID)
				p.graph.Recover(deadRoot)
				p.opAppend(p.eng.Now(), deadRoot.Name, "operator", "router-repaired", "")
			})
		}
	})
}

// cableDegradeFrac is the share of nominal bandwidth a degraded router
// uplink keeps until it is repaired.
const cableDegradeFrac = 0.25

// startCableDegradation drops a router uplink to a fraction of its
// nominal bandwidth (the §IV-A degraded-cable failure mode). The
// link stays up — this degrades throughput without downtime.
func (p *campaign) startCableDegradation() {
	uplinks := p.c.Fabric.RouterUpLinks()
	if len(uplinks) == 0 {
		return
	}
	degraded := make([]bool, len(uplinks)) // indexed like uplinks
	net := p.c.Fabric.Net
	src := rng.New(p.cfg.Seed).Split("chaos-cables")
	p.poisson(src, p.sched.cableDegradeInterval, func() {
		idx := src.Intn(len(uplinks))
		if !degraded[idx] {
			degraded[idx] = true
			l := uplinks[idx]
			net.Degrade(l, cableDegradeFrac)
			p.rep.CableDegradations++
			p.emit(net.LinkName(l), monitor.Hardware, "hca-symbol-errors")
			p.eng.After(p.sched.cableRepair, func() {
				net.Restore(l)
				degraded[idx] = false
			})
		}
	})
}

func (p *campaign) scheduleMDSOutage() {
	mds := p.spaces[0].mds
	p.eng.At(p.sched.mdsOutageAt, func() {
		p.rep.MDSOutages++
		p.emit(mds.Name, monitor.Software, "mds-outage")
		p.graph.Fail(mds)
		p.eng.After(p.sched.mdsOutageDuration, func() {
			p.graph.Recover(mds)
			p.opAppend(p.eng.Now(), mds.Name, "operator", "mds-recovered", "")
		})
	})
}

// scheduleEnclosureLoss replays the §IV-E compounding against namespace
// 0's first couplet under the corrected Spider II layout: a rebuild is
// in flight when an enclosure drops, taking one member of every group.
// Each group degrades but survives (10x1 housing), and repair crews
// restore the lost members with fresh drives.
func (p *campaign) scheduleEnclosureLoss() {
	layout := raid.Spider2Layout()
	src := rng.New(p.cfg.Seed).Split("chaos-enclosure")
	p.eng.At(p.sched.enclosureLossAt, func() {
		cp := p.c.CoupletsOf(0, layout)[0]
		groups := cp.Groups()
		g0 := groups[0]
		if g0.State() == raid.Healthy {
			g0.FailDisk(0)
			p.emit(p.groups[g0].Name+"-disk0", monitor.Hardware, "disk-failure")
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
					p.graph.Fail(p.groups[g])
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
			p.eng.After(p.sched.enclosureRepair, repair("r1"))
			p.eng.After(2*p.sched.enclosureRepair+6*sim.Hour, repair("r2"))
		})
	})
}

// scheduleCorruptionStorm sprays silent bit rot uniformly across every
// member disk in the fleet — the firmware-bug-class event that seeds
// the latent errors scrubbing exists to find before rebuilds do.
func (p *campaign) scheduleCorruptionStorm() {
	src := rng.New(p.cfg.Seed).Split("chaos-corruption")
	p.eng.At(p.sched.corruptionStormAt, func() {
		var dsks []*disk.Disk
		for ns := range p.c.Namespaces {
			for _, g := range p.c.GroupsOf(ns) {
				dsks = append(dsks, g.Disks()...)
			}
		}
		for k := 0; k < p.sched.corruptionStormErrors; k++ {
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
	if p.sched.scrub.PassInterval <= 0 {
		return
	}
	for ns := range p.c.Namespaces {
		for _, g := range p.c.GroupsOf(ns) {
			s := raid.NewScrubber(g, p.sched.scrub)
			gn := p.groups[g].Name
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
			if p.spaces[ns].ns.Down() {
				p.rep.UnavailableProbes++
			} else {
				p.rep.ProbesLaunched++
				start := p.eng.Now()
				path := fmt.Sprintf("chaos-probe/ns%d/p%05d", ns, k)
				fs.Create(path, 4, func(f *lustre.File) {
					cl.WriteStream(f, p.sched.probeBytes, 1<<20, func(n int64) {
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
			p.eng.After(p.sched.probeInterval, tick)
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
			r.UndetectedCorruptReads += g.UndetectedCorruptReads
			r.RebuildLatentHits += g.RebuildLatentHits
			r.LatentDataLoss += g.UnrecoverableStripes
			r.LostStripeReads += g.LostStripeReads
			r.StripesChecked += g.StripesChecked
		}
		for _, s := range fs.OSSes {
			r.OSSDoubleFaults += s.DoubleFaults
		}
		for _, o := range fs.OSTs {
			r.ReadEIOs += o.ReadEIOs
		}
	}
	for _, s := range p.scrubbers {
		r.ScrubRepairs += uint64(s.Repairs)
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
	r.Components = p.graph.Stats()
	for _, k := range r.Kinds() { // a kind's row has at least one component
		if k.Kind == KindOST {
			r.OSTs, r.OSTDowntime = k.Components, k.Downtime
			r.Availability = 1 - float64(k.Downtime)/(float64(k.Components)*float64(r.Window))
		}
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
