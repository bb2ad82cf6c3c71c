package lustre

import (
	"spiderfs/internal/disk"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

// Params sizes a namespace build. One SSU carries OSTsPerSSU Spider II
// RAID groups (raid.Spider2Group) behind one controller couplet and
// OSSPerSSU object storage servers.
type Params struct {
	Name       string
	NumSSU     int
	OSTsPerSSU int
	OSSPerSSU  int

	DiskCfg disk.Config
	CtrlCfg ControllerConfig
	OSSCfg  OSSConfig
	MDSCfg  MDSConfig
}

// Spider2Namespace returns one of Spider II's two namespaces at full
// scale: 18 SSUs x 56 OSTs x 10 disks = 10,080 drives, 1,008 OSTs, 144
// OSSes (the real file system was 36 SSUs split into two namespaces).
func Spider2Namespace() Params {
	return Params{
		Name:       "atlas1",
		NumSSU:     18,
		OSTsPerSSU: 56,
		OSSPerSSU:  8,
		DiskCfg:    disk.NLSAS2TB(),
		CtrlCfg:    Spider2Controller(),
		OSSCfg:     Spider2OSS(),
		MDSCfg:     Spider2MDS(),
	}
}

// Scale returns a copy with SSU count divided by f (minimum 1),
// preserving the per-SSU shape so per-SSU behaviour is unchanged and
// aggregate numbers scale linearly. Used to keep big sweeps tractable.
func (p Params) Scale(f int) Params {
	if f < 1 {
		f = 1
	}
	p.NumSSU = p.NumSSU / f
	if p.NumSSU < 1 {
		p.NumSSU = 1
	}
	return p
}

// TestNamespace returns a tiny namespace for unit tests: 1 SSU, 4 OSTs
// on small disks.
func TestNamespace() Params {
	p := Spider2Namespace()
	p.Name = "test"
	p.NumSSU = 1
	p.OSTsPerSSU = 4
	p.OSSPerSSU = 2
	p.DiskCfg.Capacity = 2 << 30
	return p
}

// Build manufactures the namespace: disks, RAID groups, controllers,
// OSTs, OSSes, and MDS, wired together on eng. The controllers, OSTs
// and OSSes each live in one slab; SSU ssu's drives are split from src
// as "ssu-<ssu>" and OST i's stream as "ost-<i>".
func Build(eng *sim.Engine, p Params, src *rng.Source) *FS {
	if p.NumSSU < 1 || p.OSTsPerSSU < 1 || p.OSSPerSSU < 1 {
		panic("lustre: invalid namespace shape") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	nOST := p.NumSSU * p.OSTsPerSSU
	nOSS := p.NumSSU * p.OSSPerSSU
	ostSlab, ossSlab, ctrlSlab := make([]OST, nOST), make([]OSS, nOSS), make([]Controller, p.NumSSU)
	osts, osses, ctrls := make([]*OST, nOST), make([]*OSS, nOSS), make([]*Controller, p.NumSSU)
	ostOSS := make([]int, nOST)
	for ssu := range ctrls {
		ctrl := &ctrlSlab[ssu]
		ctrl.init(eng, p.CtrlCfg)
		ctrls[ssu] = ctrl
		ssuSrc := src.SplitIndex("ssu-", ssu)
		groups := raid.BuildGroups(eng, p.OSTsPerSSU, p.DiskCfg, &ssuSrc)
		ssuOSSBase := ssu * p.OSSPerSSU
		for i := 0; i < p.OSSPerSSU; i++ {
			id := ssuOSSBase + i
			ossSlab[id].init(eng, p.OSSCfg)
			osses[id] = &ossSlab[id]
		}
		for i, g := range groups {
			id := ssu*p.OSTsPerSSU + i
			ostSlab[id].init(eng, id, g, ctrl, src.SplitIndex("ost-", id))
			osts[id] = &ostSlab[id]
			ostOSS[id] = ssuOSSBase + i%p.OSSPerSSU
		}
	}
	return NewFS(eng, p.Name, NewMDS(eng, p.MDSCfg), osts, osses, ctrls, ostOSS)
}
