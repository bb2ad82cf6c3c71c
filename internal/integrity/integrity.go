// Package integrity is the background data-integrity plane: a throttled
// scrubber that walks RAID stripes, repairs what parity can reconstruct,
// and escalates what it cannot — plus the E19 experiment scenario that
// measures what the scrubber buys (undetected-corrupt-read probability,
// rebuild-window exposure to latent errors).
//
// The paper's §IV-E lesson is that the dangerous errors are the latent
// ones: a sector that rotted months ago is harmless until a 2 TB rebuild
// reads it with parity margin already spent. Scrubbing trades a steady
// background I/O tax for finding those sectors while parity can still
// fix them. The scrubber uses the same batch+pause throttle shape as
// raid.Group rebuilds, so its foreground impact is bounded the same way.
//
// Determinism: the scrubber draws no randomness at all — its schedule
// is purely engine-driven, so enabling it never perturbs any model
// stream. All injected corruption (rate-driven or scripted) draws from
// dedicated rng.Split streams owned by the disk layer.
package integrity

import (
	"spiderfs/internal/raid"
	"spiderfs/internal/sim"
)

// Config throttles a Scrubber.
type Config struct {
	// BatchStripes is the number of stripes verified per batch; each
	// batch is one sequential read of the range on every online member.
	BatchStripes int64
	// BatchPause is inserted between batches — the foreground-impact
	// throttle, exactly like raid.Group.RebuildPause.
	BatchPause sim.Time
	// PassInterval is the idle gap between the end of one full-device
	// pass and the start of the next.
	PassInterval sim.Time
}

// DefaultConfig returns the scrub throttle used by the E19 experiment's
// default point.
func DefaultConfig() Config {
	return Config{
		BatchStripes: 128,
		BatchPause:   500 * sim.Millisecond,
		PassInterval: DefaultScrubInterval,
	}
}

// DefaultScrubInterval is the default gap between scrub passes. It is
// deliberately tight relative to the E19 scenario's read rate: at the
// default interval the scrubber must win the race against foreground
// reads for every freshly corrupted sector (zero undetected corrupt
// reads), which is the property the regression gate pins.
const DefaultScrubInterval = 30 * sim.Second

// Scrubber walks one group's stripes in the background. Create with
// New, arm with Start; it runs until Stop, group failure, or engine
// drain.
type Scrubber struct {
	eng     *sim.Engine
	g       *raid.Group
	cfg     Config
	next    int64 // next stripe to scrub
	ev      sim.Event
	running bool
	// inFlight is set while a batch's reads are outstanding. Its
	// completion continues the chain, so a Stop and Start inside that
	// window resumes the chain instead of issuing a second one.
	inFlight bool

	// batchFn and doneFn are s.batch and s.complete, bound once so a
	// steady-state batch cycle allocates nothing.
	batchFn func()
	doneFn  func(raid.ScrubResult)

	// Escalate, when set, is invoked once per scrub batch that found
	// stripes beyond parity, with the count of stripes this batch
	// escalated as unrecoverable — the operations-ledger tap. The hook
	// runs at the engine's current time, is never called with zero, and
	// draws no randomness, so wiring it preserves the scrubber's
	// perturbation-free contract.
	Escalate func(lost int)

	// Counters.
	Passes          int   // full-device passes completed
	ScannedStripes  int64 // stripes verified
	Repairs         int   // chunks reconstructed and rewritten
	Lost            int   // stripes escalated as unrecoverable
	RebuildOverlaps int   // batches that hit defects while a rebuild ran
}

// New builds a scrubber over g. Zero config fields fall back to
// DefaultConfig values.
func New(eng *sim.Engine, g *raid.Group, cfg Config) *Scrubber {
	def := DefaultConfig()
	if cfg.BatchStripes <= 0 {
		cfg.BatchStripes = def.BatchStripes
	}
	if cfg.BatchPause <= 0 {
		cfg.BatchPause = def.BatchPause
	}
	if cfg.PassInterval <= 0 {
		cfg.PassInterval = def.PassInterval
	}
	s := &Scrubber{eng: eng, g: g, cfg: cfg}
	s.batchFn = s.batch
	s.doneFn = s.complete
	return s
}

// Running reports whether the scrubber is armed.
//
//simlint:allow test-only-export read-only accessor the scrubber lifecycle tests assert
func (s *Scrubber) Running() bool { return s.running }

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

func (s *Scrubber) batch() {
	if !s.running {
		return
	}
	if s.g.State() == raid.Failed {
		// Nothing left to protect: the group is gone.
		s.running = false
		return
	}
	s.inFlight = true
	s.g.ScrubStripes(s.next, s.cfg.BatchStripes, s.doneFn)
}

// complete accounts one finished batch and paces the next.
func (s *Scrubber) complete(res raid.ScrubResult) {
	s.inFlight = false
	if !s.running {
		return
	}
	s.ScannedStripes += res.Scanned
	s.Repairs += res.Repaired
	s.Lost += res.Lost
	if res.Lost > 0 && s.Escalate != nil {
		s.Escalate(res.Lost)
	}
	if res.Rebuilding && (res.Repaired > 0 || res.Lost > 0) {
		// Scrub-found defect with a rebuild in flight: the paper's
		// double-failure window, seen from the scrubber's side.
		s.RebuildOverlaps++
	}
	s.next += res.Scanned
	pause := s.cfg.BatchPause
	if s.next >= s.g.TotalStripes() {
		s.next = 0
		s.Passes++
		pause = s.cfg.PassInterval
	}
	s.ev = s.eng.After(pause, s.batchFn)
}
