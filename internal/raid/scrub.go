package raid

import (
	"spiderfs/internal/disk"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
)

// ScrubConfig throttles a Scrubber.
type ScrubConfig struct {
	// BatchStripes is the number of stripes verified per batch; each
	// batch is one sequential read of the range on every online member.
	// It must be positive.
	BatchStripes int64
	// BatchPause is inserted between batches: the foreground-impact
	// throttle, like Group.RebuildPause.
	BatchPause sim.Time
	// PassInterval is the idle gap between the end of one full-device
	// pass and the start of the next.
	PassInterval sim.Time
}

// Scrubber walks one group's stripes in the background: the paper's
// answer to latent errors that would otherwise surface during a
// rebuild, with parity margin already spent. Each batch reads
// BatchStripes stripes from every online member, repairs what parity
// can reconstruct and escalates what it cannot, then pauses, the
// batch+pause throttle a rebuild uses. Create with NewScrubber, arm
// with Start; it runs until Stop, group failure or engine drain. It
// draws no randomness, so arming it perturbs no model stream.
type Scrubber struct {
	g       *Group
	cfg     ScrubConfig
	next    int64 // next stripe to scrub
	ev      sim.Event
	running bool
	// inFlight is set while a batch's reads are outstanding. Its
	// completion continues the chain, so a Stop and Start inside that
	// window resumes the chain instead of issuing a second one.
	inFlight bool

	// The batch in flight: its barrier and span, and what its range
	// check found when it was issued.
	b          sim.Barrier
	sp         spantrace.SpanID
	scanned    int64
	repaired   int
	lost       int
	rebuilding bool // a rebuild was in flight when the batch was issued

	// batchFn and finishFn are s.batch and s.finish, bound once so a
	// steady-state batch cycle allocates nothing.
	batchFn, finishFn func()

	// Escalate, when set, is invoked once per scrub batch that found
	// stripes beyond parity, with the count of stripes this batch
	// escalated as unrecoverable: the operations-ledger tap. The hook
	// runs at the engine's current time, is never called with zero, and
	// draws no randomness.
	Escalate func(lost int)

	// Counters. Repairs counts as each batch is issued; the others
	// count batches that completed while the scrubber was armed.
	Passes          int   // full-device passes completed
	ScannedStripes  int64 // stripes verified
	Repairs         int   // chunks reconstructed and rewritten
	Lost            int   // stripes escalated as unrecoverable
	RebuildOverlaps int   // batches that hit defects while a rebuild ran
}

// NewScrubber builds a disarmed scrubber over g.
func NewScrubber(g *Group, cfg ScrubConfig) *Scrubber {
	s := &Scrubber{g: g, cfg: cfg}
	s.batchFn, s.finishFn = s.batch, s.finish
	return s
}

// Start arms the scrubber; the first batch issues immediately, unless
// a batch from before a Stop is still reading, in which case its
// completion resumes the chain.
func (s *Scrubber) Start() {
	if s.running {
		return
	}
	s.running = true
	if !s.inFlight {
		s.batch()
	}
}

// Stop disarms the scrubber, cancelling any pending batch.
func (s *Scrubber) Stop() {
	s.running = false
	s.ev.Cancel()
}

// batch reads the next BatchStripes stripes (fewer at the end of a
// pass) from every online member, and repairs or escalates the defects
// found in them; repair writes join the batch's barrier.
func (s *Scrubber) batch() {
	g := s.g
	if !s.running {
		return
	}
	if g.state == Failed {
		// Nothing left to protect: the group is gone.
		s.running = false
		return
	}
	s.inFlight = true
	n := min(s.cfg.BatchStripes, g.stripes-s.next)
	s.scanned, s.rebuilding = n, g.state == Rebuilding
	ck := g.cfg.ChunkSize
	off, size := s.next*ck, n*ck
	// Background work with no client request to parent to: self-sample
	// like rebuild batches so scrub interference shows up in traces.
	s.sp = g.tracer.SampleRoot(spantrace.RAID, "scrub-batch", size)
	s.b.Reset(s.finishFn)
	old := g.tracer.Swap(s.sp)
	for m := 0; m < g.cfg.Width(); m++ {
		g.submitTo(m, disk.Op{LBA: off, Size: size}, &s.b)
	}
	s.repaired, s.lost = g.checkRange(off, size, &s.b)
	s.Repairs += s.repaired
	g.tracer.Swap(old)
	s.b.Arm()
}

// finish ends the batch's span, accounts it and paces the next one.
func (s *Scrubber) finish() {
	g := s.g
	g.tracer.End(s.sp)
	s.inFlight = false
	if !s.running {
		return
	}
	s.ScannedStripes += s.scanned
	s.Lost += s.lost
	if s.lost > 0 && s.Escalate != nil {
		s.Escalate(s.lost)
	}
	if s.rebuilding && (s.repaired > 0 || s.lost > 0) {
		// Scrub-found defect with a rebuild in flight: the paper's
		// double-failure window, seen from the scrubber's side.
		s.RebuildOverlaps++
	}
	s.next += s.scanned
	pause := s.cfg.BatchPause
	if s.next >= g.stripes {
		s.next = 0
		s.Passes++
		pause = s.cfg.PassInterval
	}
	s.ev = g.eng.After(pause, s.batchFn)
}
