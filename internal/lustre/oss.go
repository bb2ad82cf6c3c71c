package lustre

import (
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
)

// OSSConfig describes an object storage server's CPU budget. Cores is
// its one knob: the stripe-count ablation runs single-core servers.
type OSSConfig struct {
	Cores int
}

// The production OSS software path costs ~1 ns/byte (so ~1 GB/s per
// core of copy work) plus tens of microseconds of per-RPC overhead.
const (
	ossFixedPerRPC = 30 * sim.Microsecond // obdfilter + ptlrpc per-request software cost
	ossPerByte     = 1                    // data-movement CPU cost per byte, in ns
)

// Spider2OSS returns the production OSS class.
func Spider2OSS() OSSConfig {
	return OSSConfig{Cores: 8}
}

// OSS is one object storage server fronting several OSTs. Every data RPC
// passes through its CPU before reaching the controller.
type OSS struct {
	cpu    sim.Server
	tracer *spantrace.Tracer

	RPCs uint64

	down    bool
	stalled []func()
	// StalledRPCs counts requests that arrived while the server was
	// down and had to wait for recovery.
	StalledRPCs uint64
	// DoubleFaults counts faults injected while the server was already
	// down (rejected by FailOSS).
	DoubleFaults uint64
}

// init readies a zero OSS, held in Build's slab, on eng. The OSS must
// not be copied afterwards: its CPU's scheduled events point to it.
func (s *OSS) init(eng *sim.Engine, cfg OSSConfig) {
	s.cpu.Init(eng, cfg.Cores)
}

// Utilization reports CPU busy fraction.
func (s *OSS) Utilization() float64 { return s.cpu.Utilization() }

// QueueLen reports RPCs waiting for CPU.
func (s *OSS) QueueLen() int { return s.cpu.QueueLen() }

// Service runs the per-RPC software path for size bytes, then done.
// While the server is down (crash/failover in progress), requests stall
// and are replayed at recovery — the behaviour Lustre's recovery
// machinery gives clients.
func (s *OSS) Service(size int64, done func()) {
	if s.down {
		s.StalledRPCs++
		// The stall span covers arrival through recovery replay; the
		// replay re-enters Service under the same request context.
		p := s.tracer.Cur()
		sp := s.tracer.Begin(spantrace.OSS, "oss-stall", p, size)
		s.stalled = append(s.stalled, func() {
			s.tracer.End(sp)
			old := s.tracer.Swap(p)
			s.Service(size, done)
			s.tracer.Swap(old)
		})
		return
	}
	s.RPCs++
	t := ossFixedPerRPC + sim.Time(size)*ossPerByte
	sp := s.tracer.Begin(spantrace.OSS, "oss-service", s.tracer.Cur(), size)
	cb := done
	if sp != 0 {
		cb = func() {
			s.tracer.End(sp)
			if done != nil {
				done()
			}
		}
	}
	s.cpu.Submit(t, cb)
}

// Glimpse runs the small OST attribute callback used by stat on striped
// files (size must be gathered from every OST holding a stripe — why the
// paper tells users to keep small files at stripe count 1).
func (s *OSS) Glimpse(done func()) {
	if s.down {
		s.StalledRPCs++
		s.stalled = append(s.stalled, func() { s.Glimpse(done) })
		return
	}
	s.RPCs++
	s.cpu.Submit(ossFixedPerRPC/2, done)
}

// Fail takes the server down; requests stall until Recover.
func (s *OSS) Fail() { s.down = true }

// Down reports whether the server is failed.
func (s *OSS) Down() bool { return s.down }

// Recover brings the server back and replays stalled requests in FIFO
// arrival order — the ordering Lustre's transaction-replay window
// guarantees.
func (s *OSS) Recover() {
	if !s.down {
		return
	}
	s.down = false
	stalled := s.stalled
	s.stalled = nil
	for _, fn := range stalled {
		fn()
	}
}
