// Package failure provides fault injection for the Spider models: a
// Poisson disk-failure process with automatic replace-and-rebuild, the
// cable/HCA error generators that feed the monitoring pipeline, and a
// scripted replay of the 2010 human-error incident from §IV-E.
package failure

import (
	"fmt"

	"spiderfs/internal/disk"
	"spiderfs/internal/monitor"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

// DiskFailureConfig drives the background failure process.
type DiskFailureConfig struct {
	// AnnualFailureRate per drive (NL-SAS fleets see ~2-4%/yr at scale).
	AnnualFailureRate float64
	// ReplaceDelay models the technician walk time before a spare is
	// inserted and rebuild starts.
	ReplaceDelay sim.Time
}

// Injector runs failure processes against a set of RAID groups.
type Injector struct {
	eng    *sim.Engine
	groups []*raid.Group
	src    *rng.Source
	cfg    DiskFailureConfig

	// Events receives monitor events for every injected fault (optional).
	Events func(monitor.Event)
	// OnGroupFailed fires when an injected failure transitions a group
	// to Failed (data loss) — the hook the chaos campaign uses to
	// propagate the fault through the failure-domain graph.
	OnGroupFailed func(*raid.Group)

	Failures int
	Rebuilds int
	DataLoss int // groups that transitioned to Failed
	stopped  bool
	pending  sim.Event
	replID   int
	live     []*raid.Group // scratch for injectOne resampling
}

// NewInjector builds an idle injector; call Start.
func NewInjector(eng *sim.Engine, groups []*raid.Group, cfg DiskFailureConfig, src *rng.Source) *Injector {
	return &Injector{eng: eng, groups: groups, src: src, cfg: cfg}
}

// Start begins the Poisson failure process.
func (in *Injector) Start() {
	in.schedule()
}

// Stop halts the process.
func (in *Injector) Stop() {
	in.stopped = true
	in.pending.Cancel()
}

// meanGap returns the expected time between failures across the fleet.
func (in *Injector) meanGap() sim.Time {
	drives := 0
	for _, g := range in.groups {
		drives += g.Config().Width()
	}
	if drives == 0 || in.cfg.AnnualFailureRate <= 0 {
		return 0
	}
	perDrivePerSec := in.cfg.AnnualFailureRate / (365.25 * 24 * 3600)
	fleetRate := perDrivePerSec * float64(drives)
	return sim.FromSeconds(1 / fleetRate)
}

func (in *Injector) schedule() {
	gap := in.meanGap()
	if gap == 0 {
		return
	}
	wait := sim.FromSeconds(in.src.Exp(1 / gap.Seconds()))
	in.pending = in.eng.After(wait, func() {
		if in.stopped {
			return
		}
		in.injectOne()
		in.schedule()
	})
}

func (in *Injector) injectOne() {
	// Sample among live groups only: a draw landing on an already-Failed
	// group must not silently waste the failure slot, or the delivered
	// fleet AFR falls below the configured rate as groups die.
	live := in.live[:0]
	for _, g := range in.groups {
		if g.State() != raid.Failed {
			live = append(live, g)
		}
	}
	in.live = live
	if len(live) == 0 {
		return
	}
	g := live[in.src.Intn(len(live))]
	m := in.src.Intn(g.Config().Width())
	before := g.State()
	st := g.FailDisk(m)
	in.Failures++
	in.emit(monitor.Event{
		At: in.eng.Now(), Component: fmt.Sprintf("grp%d-disk%d", g.ID, m),
		Class: monitor.Hardware, Kind: "disk-failure",
	})
	if st == raid.Failed {
		if before != raid.Failed {
			in.DataLoss++
			in.emit(monitor.Event{
				At: in.eng.Now(), Component: fmt.Sprintf("grp%d", g.ID),
				Class: monitor.Software, Kind: "ost-offline",
			})
			if in.OnGroupFailed != nil {
				in.OnGroupFailed(g)
			}
		}
		return
	}
	// Replace after the walk delay and rebuild. A repeat draw of a
	// member that was already offline schedules a second replacement;
	// by the time it arrives the first may have brought the member back.
	in.eng.After(in.cfg.ReplaceDelay, func() {
		if g.State() == raid.Failed || in.stopped || !g.Offline(m) {
			return
		}
		dcfg := g.Disks()[m].Config()
		repl := disk.New(in.eng, 1_000_000+in.replID, dcfg, disk.Nominal(),
			in.src.Split(fmt.Sprintf("repl-%d", in.replID)))
		in.replID++
		in.Rebuilds++
		// The callback is a no-op, but it must not be nil: a queued
		// rebuild whose member is back by its turn completes through
		// an After(0, done) event only when done is set, and that
		// event's sequence number is in every chaos fingerprint.
		g.StartRebuild(m, repl, func() {})
	})
}

func (in *Injector) emit(ev monitor.Event) {
	if in.Events != nil {
		in.Events(ev)
	}
}

// CableFlap injects an InfiniBand cable error burst: a hardware event
// followed by the software fallout the coalescer must associate
// (§IV-A's single-cable performance degradation).
func CableFlap(eng *sim.Engine, sink func(monitor.Event), component string, at sim.Time) {
	eng.At(at, func() {
		sink(monitor.Event{At: eng.Now(), Component: component, Class: monitor.Hardware, Kind: "hca-symbol-errors"})
	})
	eng.At(at+2*sim.Second, func() {
		sink(monitor.Event{At: eng.Now(), Component: "lnet", Class: monitor.Software, Kind: "router-timeout"})
	})
	eng.At(at+5*sim.Second, func() {
		sink(monitor.Event{At: eng.Now(), Component: "oss", Class: monitor.Software, Kind: "bulk-resend"})
	})
}

// IncidentReport is the outcome of the replayed 2010 incident.
type IncidentReport struct {
	GroupsFailed   int
	JournalLost    int64
	FilesRecovered int64
	FilesLost      int64
}

// HumanErrorScenario replays §IV-E on a couplet of four RAID groups
// (64 MiB NL-SAS members) wired under layout. A disk is replaced and
// its rebuild starts; the controller connection is interrupted and
// fails over, so the unit returns to production still rebuilding and a
// million files' metadata accumulate in the journal. An hour in, the
// enclosure housing other members of the group drops (the compounding
// hardware failure); seventeen hours later the array is taken offline
// while still rebuilding, dropping the journal, and recovery proceeds
// at the ~95% rate achieved over two weeks.
func HumanErrorScenario(layout raid.EnclosureLayout, seed uint64) IncidentReport {
	eng := sim.NewEngine()
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = 64 << 20
	groups := raid.BuildGroups(eng, 4, dcfg, rng.New(seed))
	for _, g := range groups {
		g.RebuildPause = 30 * sim.Minute
		g.RebuildChunk = 8
	}
	c := raid.NewCouplet(layout, groups)
	g := groups[0]
	g.FailDisk(0)
	repl := disk.New(eng, 9999, dcfg, disk.Nominal(), rng.New(seed).Split("r"))
	g.StartRebuild(0, repl, nil)
	c.ControllerFailover()
	c.Journal.Log(1_000_000)
	eng.RunFor(sim.Hour)
	c.FailEnclosure(1)
	eng.RunFor(17 * sim.Hour)

	rep := IncidentReport{JournalLost: c.TakeOffline()}
	for _, gg := range groups {
		if gg.State() == raid.Failed {
			rep.GroupsFailed++
		}
	}
	rep.FilesRecovered, rep.FilesLost = c.RecoverFiles(rng.New(seed).Split("rec"), 0.95)
	return rep
}
