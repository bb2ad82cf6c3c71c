// Package lustre models the Lustre parallel file system stack as
// deployed on Spider: object storage targets (OSTs) backed by RAID-6
// groups behind DDN-style storage controllers with write-back caches,
// object storage servers (OSSes), a single metadata server (MDS) per
// namespace, striped files, and pipelined client RPC streams.
//
// The model captures the levers the paper's operational lessons turn on:
// per-RPC software overheads (obdfilter), stripe-aligned vs partial
// stripe writes, controller cache backpressure, fill-level fragmentation
// and inner-zone slowdown, single-MDS metadata limits, and stat cost
// proportional to stripe count.
package lustre

import (
	"spiderfs/internal/sim"
)

// ControllerConfig describes one storage-controller couplet (one per
// SSU: 56 OSTs behind it in Spider II).
type ControllerConfig struct {
	// Bps is the couplet's aggregate streaming bandwidth. Spider II's
	// original controllers delivered ~18 GB/s per SSU (36 SSUs -> ~650
	// GB/s across both namespaces); the CPU/memory upgrade described in
	// §V-C raised it to ~30 GB/s.
	Bps float64
	// FixedPerRPC is firmware per-request overhead.
	FixedPerRPC sim.Time
	// Slots is the number of requests serviced concurrently.
	Slots int
	// CacheBytes is the write-back cache size; inbound writes beyond it
	// block until dirty data flushes to disk.
	CacheBytes int64
}

// Spider2Controller returns the pre-upgrade SFA-class controller.
func Spider2Controller() ControllerConfig {
	return ControllerConfig{Bps: 18e9, FixedPerRPC: 60 * sim.Microsecond, Slots: 16, CacheBytes: 8 << 30}
}

// Spider2ControllerUpgraded returns the post-upgrade controller (faster
// CPU and memory; §V-C reports 320 -> 510 GB/s per namespace).
func Spider2ControllerUpgraded() ControllerConfig {
	return ControllerConfig{Bps: 30e9, FixedPerRPC: 30 * sim.Microsecond, Slots: 24, CacheBytes: 16 << 30}
}

// Controller is the shared couplet serving all OSTs of one SSU. It
// provides request servicing (CPU/bandwidth) and write-back cache
// admission control.
type Controller struct {
	cfg ControllerConfig
	eng *sim.Engine
	srv sim.Server

	dirty int64 // bytes admitted but not yet flushed to disk
	// waiters holds writes stalled on a full cache. Flushed moves the
	// ones it releases into released, in order, and schedules one
	// readmit event for each; readmit pops released and re-runs the
	// admission. readmit is bound by readmitted on the first release.
	waiters  sim.Queue[ctrlWaiter]
	released sim.Queue[ctrlWaiter]
	readmit  func()

	// Counters.
	RPCs        uint64
	BytesIn     int64
	CacheStalls uint64
	PeakDirty   int64
}

type ctrlWaiter struct {
	size int64
	done func()
}

// NewController builds a controller couplet on eng. The second
// argument, the couplet's index, is not kept: nothing reads it.
func NewController(eng *sim.Engine, _ int, cfg ControllerConfig) *Controller {
	c := new(Controller)
	c.init(eng, cfg)
	return c
}

// init readies a zero Controller, such as one held in Build's slab, on
// eng. The controller must not be copied afterwards: its server's
// scheduled events point to it.
func (c *Controller) init(eng *sim.Engine, cfg ControllerConfig) {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	c.cfg, c.eng = cfg, eng
	c.srv.Init(eng, cfg.Slots)
}

// readmitted returns the event that pops the next released waiter and
// re-runs its admission. It is bound on the controller's first release:
// most controllers of a center never stall a write.
func (c *Controller) readmitted() func() {
	if c.readmit == nil {
		c.readmit = func() {
			w, _ := c.released.Pop()
			c.AdmitWrite(w.size, w.done)
		}
	}
	return c.readmit
}

// Config returns the controller configuration.
func (c *Controller) Config() ControllerConfig { return c.cfg }

// Dirty returns the bytes currently held dirty in cache.
func (c *Controller) Dirty() int64 { return c.dirty }

// Utilization returns the request-servicing utilization.
func (c *Controller) Utilization() float64 { return c.srv.Utilization() }

// QueueLen returns requests waiting for a controller service slot — a
// live congestion signal the placement library reads. Released waiters
// whose readmit event has not fired yet are not counted.
func (c *Controller) QueueLen() int { return c.srv.QueueLen() + c.waiters.Len() }

// serviceTime is the request-processing cost of moving size bytes
// through the couplet.
func (c *Controller) serviceTime(size int64) sim.Time {
	perSlot := c.cfg.Bps / float64(c.cfg.Slots)
	return c.cfg.FixedPerRPC + sim.FromSeconds(float64(size)/perSlot)
}

// AdmitWrite blocks (logically) until cache space for size bytes is
// available, then services the request and calls done when the data is
// safely in cache (write-back semantics: the RPC acks before the disk
// flush).
func (c *Controller) AdmitWrite(size int64, done func()) {
	if size <= 0 {
		panic("lustre: controller write of non-positive size") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	if c.dirty+size > c.cfg.CacheBytes && c.dirty > 0 {
		c.CacheStalls++
		c.waiters.Push(ctrlWaiter{size: size, done: done})
		return
	}
	c.dirty += size
	if c.dirty > c.PeakDirty {
		c.PeakDirty = c.dirty
	}
	c.RPCs++
	c.BytesIn += size
	c.srv.Submit(c.serviceTime(size), done)
}

// ServiceRead runs a read request through the couplet (read-through: the
// caller chains the disk read after this completes).
func (c *Controller) ServiceRead(size int64, done func()) {
	if size <= 0 {
		panic("lustre: controller read of non-positive size") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	c.RPCs++
	c.srv.Submit(c.serviceTime(size), done)
}

// Flushed informs the controller that size dirty bytes reached disk,
// freeing cache space and admitting stalled writers.
func (c *Controller) Flushed(size int64) {
	c.dirty -= size
	if c.dirty < 0 {
		c.dirty = 0
	}
	// Each head waiter that fits the current gap is released without
	// reserving its space, so one gap can release several and all but
	// the first may re-stall. That thundering herd is model behaviour.
	for {
		w, ok := c.waiters.Front()
		if !ok || c.dirty+w.size > c.cfg.CacheBytes && c.dirty > 0 {
			break
		}
		c.waiters.Pop()
		c.released.Push(w)
		// Re-run the admission on a fresh event to keep stack depth flat.
		c.eng.After(0, c.readmitted())
	}
}
