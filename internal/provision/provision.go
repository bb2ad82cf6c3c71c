// Package provision models the cluster deployment machinery of §IV-A:
// GeDI-style diskless booting (tftp + read-only NFS root + boot-time
// configuration scripts run in integer order, the /etc/gedi.d feature
// OLCF added for Spider II) versus disk-full nodes, and BCFG2-style
// configuration convergence. The payoffs the paper claims — lower cost,
// fewer moving parts, faster mean time to repair — are measurable here.
package provision

import (
	"fmt"
	"sort"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

// ConfigScript is one /etc/gedi.d entry: it runs at boot in Order
// position, consumes configs produced by earlier scripts, and produces
// its own before the depending service starts.
type ConfigScript struct {
	Order    int
	Name     string
	Produces []string
	Needs    []string
	Runtime  sim.Time
}

// ValidateScripts checks that integer-order execution satisfies every
// dependency (each Needs is Produced by a strictly earlier script).
// It returns the execution order or an error naming the violation.
func ValidateScripts(scripts []ConfigScript) ([]ConfigScript, error) {
	ordered := append([]ConfigScript(nil), scripts...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Order < ordered[j].Order })
	produced := map[string]bool{}
	for _, s := range ordered {
		for _, need := range s.Needs {
			if !produced[need] {
				return nil, fmt.Errorf("provision: script %q (order %d) needs %q before it is produced",
					s.Name, s.Order, need)
			}
		}
		for _, p := range s.Produces {
			produced[p] = true
		}
	}
	return ordered, nil
}

// Spider2Scripts returns the boot scripts the paper describes: network
// configuration, then the InfiniBand srp_daemon configuration, then the
// subnet manager, then Lustre service configs.
func Spider2Scripts() []ConfigScript {
	return []ConfigScript{
		{Order: 10, Name: "network", Produces: []string{"ifcfg"}, Runtime: 2 * sim.Second},
		{Order: 20, Name: "srp-daemon", Needs: []string{"ifcfg"}, Produces: []string{"srp.conf"}, Runtime: sim.Second},
		{Order: 30, Name: "ib-subnet-manager", Needs: []string{"ifcfg"}, Produces: []string{"opensm.conf"}, Runtime: sim.Second},
		{Order: 40, Name: "lustre-targets", Needs: []string{"srp.conf"}, Produces: []string{"ldev.conf"}, Runtime: 3 * sim.Second},
		{Order: 50, Name: "ramdisks", Needs: []string{"ifcfg"}, Produces: []string{"etc-var-opt"}, Runtime: 2 * sim.Second},
	}
}

// NodeKind selects the provisioning model.
type NodeKind int

// Provisioning models.
const (
	Diskless NodeKind = iota
	DiskFull
)

// BootProfile gives the phase durations of a node boot.
type BootProfile struct {
	// PXE through kernel+initrd load.
	Firmware sim.Time
	// Root: NFS read-only mount (diskless) or local fsck+mount
	// (disk-full; slower and failure-prone).
	Root sim.Time
	// ServiceStart after configs are built.
	ServiceStart sim.Time
	// RootFailProb is the chance the root phase fails and the boot
	// restarts (disk-full nodes carry local-disk risk).
	RootFailProb float64
}

// DisklessProfile mirrors a GeDI node.
func DisklessProfile() BootProfile {
	return BootProfile{Firmware: 45 * sim.Second, Root: 20 * sim.Second,
		ServiceStart: 15 * sim.Second, RootFailProb: 0.002}
}

// DiskFullProfile mirrors a conventionally imaged node.
func DiskFullProfile() BootProfile {
	return BootProfile{Firmware: 45 * sim.Second, Root: 90 * sim.Second,
		ServiceStart: 15 * sim.Second, RootFailProb: 0.03}
}

// bootOrdered schedules one boot of pre-validated, pre-sorted scripts:
// firmware, root (rebooting on failure), scripts, then services. done
// receives the number of root failures retried.
func bootOrdered(eng *sim.Engine, profile BootProfile, ordered []ConfigScript, src *rng.Source, done func(retries int)) {
	retries := 0
	var rootPhase func()
	rootPhase = func() {
		eng.After(profile.Root, func() {
			if src.Bool(profile.RootFailProb) {
				retries++
				eng.After(profile.Firmware, rootPhase) // reboot
				return
			}
			var scriptsTotal sim.Time
			for _, s := range ordered {
				scriptsTotal += s.Runtime
			}
			eng.After(scriptsTotal+profile.ServiceStart, func() { done(retries) })
		})
	}
	eng.After(profile.Firmware, rootPhase)
}

// FleetBoot boots n nodes concurrently (bounded by parallel, the
// console/dhcp capacity) and reports the time to full fleet readiness.
// Scripts are validated once up front; an invalid set boots nothing.
func FleetBoot(eng *sim.Engine, n int, profile BootProfile, scripts []ConfigScript, parallel int, src *rng.Source) (total sim.Time, retries int, err error) {
	ordered, err := ValidateScripts(scripts)
	if err != nil {
		return 0, 0, err
	}
	start := eng.Now()
	fleetAsyncOrdered(eng, "node", n, profile, ordered, parallel, src, func(r int) { retries = r })
	eng.Run()
	return eng.Now() - start, retries, nil
}

// NodeCost returns the per-node hardware cost under each model: a
// diskless node saves the RAID controller, backplane, cabling, carriers,
// and drives (Lesson 7's acquisition/maintenance saving).
func NodeCost(kind NodeKind) float64 {
	base := 6500.0
	if kind == DiskFull {
		return base + 350 /*raid ctlr*/ + 150 /*backplane+cabling*/ + 2*180 /*drives*/
	}
	return base
}

// ConvergeResult reports a BCFG2 configuration push.
type ConvergeResult struct {
	Duration sim.Time
	Failures int
}

// Converge applies a configuration change to n nodes. Diskless fleets
// rebuild one image then reboot (fast, uniform); disk-full fleets run
// per-node package transactions with retry on failure.
func Converge(eng *sim.Engine, n int, kind NodeKind, src *rng.Source) ConvergeResult {
	start := eng.Now()
	var res ConvergeResult
	switch kind {
	case Diskless:
		imageBuild := 4 * sim.Minute
		// Spider2Scripts always validates; boot with the ordered set.
		ordered, _ := ValidateScripts(Spider2Scripts())
		eng.After(imageBuild, func() {
			fleetAsyncOrdered(eng, "anode", n, DisklessProfile(), ordered, 64, src, func(retries int) {
				res.Failures = retries
			})
		})
		eng.Run()
	case DiskFull:
		// An OS/Lustre-base update on imaged nodes: per-node package
		// transaction plus a reboot, pushed 64 wide, with transaction
		// failures retried — the slow, drift-prone path Lesson 7 argues
		// against.
		launched := 0
		var launch func()
		apply := func(retry func()) {
			d := 2*sim.Minute + sim.Time(src.Intn(int(sim.Minute)))
			eng.After(d, func() {
				if src.Bool(0.05) {
					res.Failures++
					retry()
					return
				}
				bootOrdered(eng, DiskFullProfile(), nil, src.Split(fmt.Sprintf("cvg-%d", launched)), func(r int) {
					res.Failures += r
					launch()
				})
			})
		}
		launch = func() {
			if launched >= n {
				return
			}
			launched++
			var self func()
			self = func() { apply(self) }
			self()
		}
		for i := 0; i < 64 && i < n; i++ {
			launch()
		}
		eng.Run()
	}
	res.Duration = eng.Now() - start
	return res
}

// fleetAsyncOrdered boots n nodes of pre-validated, pre-sorted scripts,
// at most parallel at a time, without draining the engine; done
// receives the total retry count when the fleet is up. Node i draws
// from src.Split(label-i).
func fleetAsyncOrdered(eng *sim.Engine, label string, n int, profile BootProfile, ordered []ConfigScript, parallel int, src *rng.Source, done func(retries int)) {
	if parallel < 1 {
		parallel = 1
	}
	remaining := n
	launched := 0
	retries := 0
	var launch func()
	launch = func() {
		if launched >= n {
			return
		}
		launched++
		bootOrdered(eng, profile, ordered, src.Split(fmt.Sprintf("%s-%d", label, launched)), func(r int) {
			retries += r
			remaining--
			if remaining == 0 {
				done(retries)
				return
			}
			launch()
		})
	}
	for i := 0; i < parallel && i < n; i++ {
		launch()
	}
}
