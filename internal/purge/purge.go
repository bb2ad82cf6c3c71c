// Package purge implements the automatic capacity-trimming mechanism of
// §IV-C: files not created, modified, or accessed within a contiguous
// window (14 days on Spider) are deleted by a periodic sweep, keeping
// utilization below the level where performance degrades.
package purge

import (
	"spiderfs/internal/lustre"
	"spiderfs/internal/sim"
)

// Policy configures the purger.
type Policy struct {
	// MaxAge is the retention window (14 days at OLCF).
	MaxAge sim.Time
	// Interval between sweeps (daily at OLCF).
	Interval sim.Time
	// Concurrency is how many unlinks are kept in flight per sweep.
	Concurrency int
}

// Spider2Policy returns the production policy.
func Spider2Policy() Policy {
	return Policy{MaxAge: 14 * sim.Day, Interval: sim.Day, Concurrency: 16}
}

// SweepReport summarizes one sweep.
type SweepReport struct {
	At         sim.Time
	Scanned    int
	Deleted    int
	BytesFreed int64
	FillBefore float64
	FillAfter  float64
}

// Purger runs the policy against a namespace.
type Purger struct {
	fs     *lustre.FS
	policy Policy

	pending sim.Event
	stopped bool

	Sweeps  []SweepReport
	Deleted int64
	Freed   int64
}

// New builds a purger; call Start for periodic sweeps or Sweep for a
// single pass.
func New(fs *lustre.FS, policy Policy) *Purger {
	if policy.MaxAge <= 0 || policy.Concurrency <= 0 {
		panic("purge: invalid policy") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	return &Purger{fs: fs, policy: policy}
}

// lastTouch is the most recent of the file's three timestamps, matching
// the paper's "not created, modified, or accessed within a contiguous 14
// day range".
func lastTouch(f *lustre.File) sim.Time {
	t := f.ATime
	if f.MTime > t {
		t = f.MTime
	}
	if f.CTime > t {
		t = f.CTime
	}
	return t
}

// Sweep scans the namespace and unlinks expired files, invoking done
// with the report when the pass completes.
func (p *Purger) Sweep(done func(SweepReport)) {
	eng := p.fs.Engine()
	now := eng.Now()
	rep := SweepReport{At: now, FillBefore: p.fs.Fill()}
	var victims []*lustre.File
	p.fs.Walk(nil, func(f *lustre.File) {
		rep.Scanned++
		if now-lastTouch(f) > p.policy.MaxAge {
			victims = append(victims, f)
		}
	})
	sim.Workers(len(victims), p.policy.Concurrency, func(_, i int, next func()) {
		f := victims[i]
		size := f.Size()
		p.fs.Unlink(f.Path, func() {
			rep.Deleted++
			rep.BytesFreed += size
			p.Deleted++
			p.Freed += size
			next()
		})
	}, func() {
		rep.FillAfter = p.fs.Fill()
		p.Sweeps = append(p.Sweeps, rep)
		if done != nil {
			done(rep)
		}
	})
}

// Start schedules periodic sweeps; Stop cancels them.
func (p *Purger) Start() {
	if p.policy.Interval <= 0 {
		panic("purge: Start needs a positive interval") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	p.schedule()
}

func (p *Purger) schedule() {
	p.pending = p.fs.Engine().After(p.policy.Interval, func() {
		if p.stopped {
			return
		}
		p.Sweep(func(SweepReport) { p.schedule() })
	})
}

// Stop halts periodic sweeping.
func (p *Purger) Stop() {
	p.stopped = true
	p.pending.Cancel()
}
