package raid

import (
	"fmt"

	"spiderfs/internal/disk"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

// Journal models the write-back journal of a storage controller pair.
// Committed entries are safe on disk; uncommitted entries describe file
// data whose only record is controller state. Taking the array offline
// uncleanly discards uncommitted entries — the failure mode behind the
// 2010 Spider I incident, which lost journal data for more than a
// million files.
type Journal struct {
	Uncommitted int64
	Committed   int64
	Lost        int64
}

// Log records n new journal entries.
func (j *Journal) Log(n int64) { j.Uncommitted += n }

// Commit flushes up to n entries to stable storage.
func (j *Journal) Commit(n int64) {
	if n > j.Uncommitted {
		n = j.Uncommitted
	}
	j.Uncommitted -= n
	j.Committed += n
}

// Drop discards all uncommitted entries (unclean shutdown) and returns
// how many were lost.
func (j *Journal) Drop() int64 {
	lost := j.Uncommitted
	j.Lost += lost
	j.Uncommitted = 0
	return lost
}

// EnclosureLayout describes how the members of each RAID group are
// distributed across physical disk enclosures ("trays").
type EnclosureLayout struct {
	Enclosures int // enclosures per couplet
	// PerEnclosure is how many members of one group share an enclosure:
	// Spider I used 5 enclosures x 2 members (an enclosure loss takes two
	// members of every group); the corrected design uses 10 x 1.
	PerEnclosure int
}

// Spider1Layout is the 5-enclosure design whose weakness §IV-E describes.
func Spider1Layout() EnclosureLayout { return EnclosureLayout{Enclosures: 5, PerEnclosure: 2} }

// Spider2Layout is the corrected 10-enclosure design.
func Spider2Layout() EnclosureLayout { return EnclosureLayout{Enclosures: 10, PerEnclosure: 1} }

// Couplet is a storage controller pair driving a set of RAID groups whose
// member disks are distributed across shared enclosures. It owns the
// write journal and models controller failover.
type Couplet struct {
	layout  EnclosureLayout
	groups  []*Group
	Journal Journal

	// ActiveControllers is 2 normally, 1 after a failover.
	ActiveControllers int

	// enclosureMembers[e] lists the group-member indices housed in
	// enclosure e (the same indices for every group in the couplet).
	enclosureMembers [][]int
}

// NewCouplet wires groups to enclosures under the given layout. Every
// group must have layout.Enclosures*layout.PerEnclosure members.
func NewCouplet(layout EnclosureLayout, groups []*Group) *Couplet {
	want := layout.Enclosures * layout.PerEnclosure
	for _, g := range groups {
		if g.Config().Width() != want {
			panic(fmt.Sprintf("raid: layout houses %d members, group has %d", want, g.Config().Width())) //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
		}
	}
	em := make([][]int, layout.Enclosures)
	m := 0
	for e := range em {
		for k := 0; k < layout.PerEnclosure; k++ {
			em[e] = append(em[e], m)
			m++
		}
	}
	return &Couplet{
		layout: layout, groups: groups, ActiveControllers: 2, enclosureMembers: em,
	}
}

// Groups returns the RAID groups behind the couplet.
func (c *Couplet) Groups() []*Group { return c.groups }

// FailEnclosure takes enclosure e offline: every group loses the member
// disks housed there. Returns the number of groups that transitioned to
// Failed (unrecoverable).
func (c *Couplet) FailEnclosure(e int) int {
	if e < 0 || e >= c.layout.Enclosures {
		panic("raid: bad enclosure index") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	failedGroups := 0
	for _, g := range c.groups {
		before := g.State()
		for _, m := range c.enclosureMembers[e] {
			g.FailDisk(m)
		}
		if g.State() == Failed && before != Failed {
			failedGroups++
		}
	}
	return failedGroups
}

// ControllerFailover drops to single-controller operation (as designed,
// service continues). The journal survives a clean failover.
func (c *Couplet) ControllerFailover() {
	if c.ActiveControllers > 1 {
		c.ActiveControllers--
	}
}

// TakeOffline removes the couplet from service. If any group is still
// rebuilding (or degraded) the shutdown is unclean and uncommitted
// journal entries are dropped; the number lost is returned.
func (c *Couplet) TakeOffline() int64 {
	unclean := false
	for _, g := range c.groups {
		if s := g.State(); s == Rebuilding || s == Degraded {
			unclean = true
		}
	}
	if unclean {
		return c.Journal.Drop()
	}
	c.Journal.Commit(c.Journal.Uncommitted)
	return 0
}

// RecoverFiles models the weeks-long recovery effort after journal loss:
// each lost journal entry (file) is recovered independently with
// probability successRate. Returns (recovered, unrecoverable). The 2010
// incident recovered ~95% of more than a million files in two weeks.
func (c *Couplet) RecoverFiles(src *rng.Source, successRate float64) (recovered, lost int64) {
	for i := int64(0); i < c.Journal.Lost; i++ {
		if src.Bool(successRate) {
			recovered++
		} else {
			lost++
		}
	}
	return recovered, lost
}

// BuildGroups is a convenience that manufactures the disks for n Spider
// II groups under one couplet and returns the groups. Disk personalities
// are drawn from the Spider II batch spread (disk.NewPopulation). The
// groups live in one slab, as the disks do in theirs; a pointer to any
// group keeps the whole slab alive. The groups share one idle list of
// write records, capped at maxIdleWrites per group.
func BuildGroups(eng *sim.Engine, n int, dcfg disk.Config, src *rng.Source) []*Group {
	gcfg := Spider2Group()
	w := gcfg.Width()
	slab := make([]Group, n)
	groups := make([]*Group, n)
	disks := disk.NewPopulation(eng, n*w, dcfg, src)
	idle := &idleRecords{max: maxIdleWrites * n}
	for i := range slab {
		slab[i].init(eng, i, gcfg, disks[i*w:(i+1)*w], idle)
		groups[i] = &slab[i]
	}
	return groups
}
