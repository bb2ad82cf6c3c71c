// Package raid models the DDN-style RAID-6 (8+2) storage arrays behind
// the Spider object storage targets: chunked striping with rotating
// parity, read-modify-write for partial-stripe writes, degraded-mode
// reconstruction, background rebuild, and the controller write journal
// whose loss caused the 2010 Spider I incident (§IV-E of the paper).
package raid

import (
	"fmt"

	"spiderfs/internal/disk"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
)

// GroupConfig describes a RAID group's geometry.
type GroupConfig struct {
	DataDisks   int   // 8 in Spider
	ParityDisks int   // 2 (RAID-6)
	ChunkSize   int64 // bytes per chunk; Spider used 128 KiB -> 1 MiB full stripe
}

// Spider2Group returns the Spider II RAID geometry: 8+2 with 128 KiB
// chunks, giving a 1 MiB full data stripe (which is why 1 MiB aligned
// I/O is the paper's headline best practice).
func Spider2Group() GroupConfig {
	return GroupConfig{DataDisks: 8, ParityDisks: 2, ChunkSize: 128 << 10}
}

// StripeDataSize returns the user-data bytes per stripe.
func (c GroupConfig) StripeDataSize() int64 { return int64(c.DataDisks) * c.ChunkSize }

// Width returns the total number of disks in the group.
func (c GroupConfig) Width() int { return c.DataDisks + c.ParityDisks }

// State enumerates group health.
type State int

const (
	// Healthy: all member disks online.
	Healthy State = iota
	// Degraded: 1-2 members offline, reads reconstruct, no rebuild running.
	Degraded
	// Rebuilding: a replacement disk is being reconstructed in background.
	Rebuilding
	// Failed: more members offline than parity can cover; data loss.
	Failed
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Rebuilding:
		return "rebuilding"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Group is one RAID-6 array exported as a LUN (one Lustre OST sits on
// each group). All I/O is asynchronous against the owning engine.
type Group struct {
	ID   int
	cfg  GroupConfig
	eng  *sim.Engine
	dsks []*disk.Disk
	// stripes is the group's stripe count, fixed by its members'
	// capacity at NewGroup (replacements are the same product).
	stripes int64

	state   State
	offline map[int]bool // member index -> offline
	tracer  *spantrace.Tracer

	// Verify selects the read-time checksum-verification policy
	// (integrity.go): VerifyOnSuspect verifies degraded stripes and
	// stripes with a drive-reported URE; VerifyAlways verifies every
	// read at full-stripe fan-out cost.
	Verify VerifyPolicy
	// lost tracks stripes escalated as unrecoverable (defects beyond
	// parity), so repeat encounters don't re-escalate the same loss.
	lost map[int64]bool
	// OnStripeLoss, when set, fires once per stripe escalated as
	// unrecoverable — the chaos ledger's data-loss accounting hook.
	OnStripeLoss func(stripe int64)
	// scrub is the reusable record of a ScrubStripes call (integrity.go),
	// built on the first one.
	scrub *scrubBatch

	// rebuild bookkeeping
	rebuild       *rebuildBatch // reusable batch record, built on the first rebuild
	rebuildMember int
	rebuildNext   int64 // next stripe index to reconstruct
	rebuildEvent  sim.Event
	// rebuildGen orphans in-flight batch chains when a rebuild is
	// cancelled (group failure, member restore) or superseded: batch
	// continuations check their generation before rescheduling.
	rebuildGen uint64
	// pending queues replacements that arrived while a rebuild was
	// already running — one rebuild at a time, like a real controller.
	pending sim.Queue[pendingRebuild]
	// RebuildChunk is the number of stripes reconstructed per background
	// batch; larger values finish sooner but steal more disk time from
	// foreground I/O.
	RebuildChunk int64
	// RebuildPause is inserted between batches — the controller's
	// rebuild-rate throttle that bounds foreground impact (production
	// rebuilds of 2 TB drives ran for many hours to days).
	RebuildPause sim.Time

	// Counters.
	Reads, Writes   uint64
	FullStripeWrite uint64
	PartialWrite    uint64
	DegradedReads   uint64
	BytesRead       int64
	BytesWritten    int64
	LostStripes     int64 // stripes unrecoverable after Failed
	// IOErrors counts reads/writes issued against the group after it
	// transitioned to Failed; they complete immediately with an
	// (implied) EIO instead of panicking, so a chaos campaign survives
	// applications racing a data-loss event.
	IOErrors uint64

	// Integrity counters (integrity.go).
	UREsDetected           uint64 // drive-reported unrecoverable read errors seen
	ChecksumMismatches     uint64 // silent corruption caught by parity verify
	RepairedChunks         uint64 // chunks reconstructed and rewritten
	ScrubRepairs           uint64 // subset of RepairedChunks found by scrubbing
	UndetectedCorruptReads uint64 // silently corrupt chunks served to callers
	UnrecoverableStripes   int64  // stripes with defects beyond parity
	LostStripeReads        uint64 // reads answered EIO from an unrecoverable stripe
	RebuildLatentHits      uint64 // latent errors hit while a rebuild was in flight
	ScrubbedStripes        int64  // stripes walked by ScrubStripes
}

// pendingRebuild is a queued replacement waiting for the running
// rebuild to finish.
type pendingRebuild struct {
	member int
	repl   *disk.Disk
	done   func()
}

// NewGroup builds a group over the given member disks. len(members) must
// equal cfg.Width().
func NewGroup(eng *sim.Engine, id int, cfg GroupConfig, members []*disk.Disk) *Group {
	if len(members) != cfg.Width() {
		panic(fmt.Sprintf("raid: group wants %d disks, got %d", cfg.Width(), len(members))) //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	return &Group{
		ID:            id,
		cfg:           cfg,
		eng:           eng,
		dsks:          members,
		stripes:       members[0].Config().Capacity / cfg.ChunkSize,
		state:         Healthy,
		offline:       map[int]bool{},
		rebuildMember: -1,
		RebuildChunk:  64,
	}
}

// SetTracer attaches the tracing plane to the group and its member
// disks (replacement drives inherit it at StartRebuild).
func (g *Group) SetTracer(tr *spantrace.Tracer) {
	g.tracer = tr
	for _, d := range g.dsks {
		d.Tracer = tr
	}
}

// Config returns the group's geometry.
func (g *Group) Config() GroupConfig { return g.cfg }

// State returns the group's health state.
func (g *Group) State() State { return g.state }

// Offline reports whether member m is offline: failed or pulled, and
// not yet restored or rebuilt.
func (g *Group) Offline(m int) bool { return g.offline[m] }

// Disks returns the member disks (monitoring/QA use).
func (g *Group) Disks() []*disk.Disk { return g.dsks }

// Capacity returns the user-visible LUN capacity in bytes.
func (g *Group) Capacity() int64 { return g.stripes * g.cfg.StripeDataSize() }

// chunkLocation maps (stripe, role) to a member disk using left-symmetric
// rotating parity: for stripe s, the two parity chunks live on members
// (s mod w) and ((s+1) mod w), and data chunk k lives on the k-th
// remaining member.
func (g *Group) chunkLocation(stripe int64, dataIdx int) (member int) {
	w := int64(g.cfg.Width())
	p0 := stripe % w
	p1 := (stripe + 1) % w
	m := int64(0)
	seen := 0
	for ; m < w; m++ {
		if m == p0 || m == p1 {
			continue
		}
		if seen == dataIdx {
			return int(m)
		}
		seen++
	}
	panic("raid: dataIdx out of range") //simlint:allow no-library-panic can't-happen internal invariant: parity rotation covers every index
}

// ChunkMember returns the member disk holding data chunk dataIdx of the
// given stripe — the layout map experiments use to plant targeted
// defects.
//
//simlint:allow test-only-export layout map the integrity tests plant targeted defects with
func (g *Group) ChunkMember(stripe int64, dataIdx int) int {
	return g.chunkLocation(stripe, dataIdx)
}

// parityLocations returns the members holding the two parity chunks of a
// stripe.
func (g *Group) parityLocations(stripe int64) (int, int) {
	w := int64(g.cfg.Width())
	return int(stripe % w), int((stripe + 1) % w)
}

func (g *Group) diskOffset(stripe int64) int64 { return stripe * g.cfg.ChunkSize }

// submitTo issues a chunk op to the member if online; offline members
// contribute nothing (reconstruction cost is added by the caller).
func (g *Group) submitTo(member int, op disk.Op, b *sim.Barrier) {
	if g.offline[member] {
		return
	}
	b.Add(1)
	g.dsks[member].Submit(op, b.DoneFunc())
}

// Read issues a logical read of size bytes at offset off and calls done
// when the slowest involved member completes. Reads from degraded
// stripes fan out to all surviving members (reconstruction); checksum
// verification and inline repair follow the Verify policy. ReadChecked
// (integrity.go) is the same path with the integrity outcome surfaced.
func (g *Group) Read(off, size int64, done func()) {
	g.ReadChecked(off, size, func(ReadOutcome) {
		if done != nil {
			done()
		}
	})
}

// Write issues a logical write. Full-stripe writes update 8 data + 2
// parity chunks in one pass; partial-stripe writes pay read-modify-write
// (read old data + parity, then write new data + parity).
func (g *Group) Write(off, size int64, done func()) {
	if g.state == Failed {
		g.ioError(done)
		return
	}
	g.Writes++
	g.BytesWritten += size
	sp := g.tracer.Begin(spantrace.RAID, "raid-write", g.tracer.Cur(), size)
	if sp != 0 {
		inner := done
		done = func() {
			g.tracer.End(sp)
			if inner != nil {
				inner()
			}
		}
	}
	b := sim.NewBarrier(done)
	old := g.tracer.Swap(sp)
	g.forEachStripe(off, size, func(stripe, chunkFirst, chunkLast int64) {
		full := chunkFirst == 0 && chunkLast == int64(g.cfg.DataDisks-1)
		p0, p1 := g.parityLocations(stripe)
		stripeOff := g.diskOffset(stripe)
		if full {
			g.FullStripeWrite++
			for k := int64(0); k < int64(g.cfg.DataDisks); k++ {
				m := g.chunkLocation(stripe, int(k))
				g.submitTo(m, disk.Op{Write: true, LBA: stripeOff, Size: g.cfg.ChunkSize}, b)
			}
			g.submitTo(p0, disk.Op{Write: true, LBA: stripeOff, Size: g.cfg.ChunkSize}, b)
			g.submitTo(p1, disk.Op{Write: true, LBA: stripeOff, Size: g.cfg.ChunkSize}, b)
			return
		}
		// Read-modify-write: phase 1 reads old chunks + parity, phase 2
		// writes the new versions. Chain the phases with a nested barrier.
		g.PartialWrite++
		rmw := g.tracer.Begin(spantrace.RAID, "rmw", sp, (chunkLast-chunkFirst+1)*g.cfg.ChunkSize)
		b.Add(1)
		stripeDone := b.DoneFunc()
		if rmw != 0 {
			stripeDone = func() {
				g.tracer.End(rmw)
				b.Done()
			}
		}
		p2parent := sp
		if rmw != 0 {
			p2parent = rmw
		}
		phase1 := sim.NewBarrier(func() {
			phase2 := sim.NewBarrier(stripeDone)
			old2 := g.tracer.Swap(p2parent)
			for k := chunkFirst; k <= chunkLast; k++ {
				m := g.chunkLocation(stripe, int(k))
				g.submitTo(m, disk.Op{Write: true, LBA: stripeOff, Size: g.cfg.ChunkSize}, phase2)
			}
			g.submitTo(p0, disk.Op{Write: true, LBA: stripeOff, Size: g.cfg.ChunkSize}, phase2)
			g.submitTo(p1, disk.Op{Write: true, LBA: stripeOff, Size: g.cfg.ChunkSize}, phase2)
			g.tracer.Swap(old2)
			phase2.Arm()
		})
		old1 := g.tracer.Swap(p2parent)
		for k := chunkFirst; k <= chunkLast; k++ {
			m := g.chunkLocation(stripe, int(k))
			g.submitTo(m, disk.Op{LBA: stripeOff, Size: g.cfg.ChunkSize}, phase1)
		}
		g.submitTo(p0, disk.Op{LBA: stripeOff, Size: g.cfg.ChunkSize}, phase1)
		g.submitTo(p1, disk.Op{LBA: stripeOff, Size: g.cfg.ChunkSize}, phase1)
		g.tracer.Swap(old1)
		phase1.Arm()
	})
	g.tracer.Swap(old)
	b.Arm()
}

// ioError completes an I/O against a Failed group: the controller
// returns the error without touching disks (zero service time beyond
// the event hop).
func (g *Group) ioError(done func()) {
	g.IOErrors++
	if done != nil {
		g.eng.After(0, done)
	}
}

// forEachStripe decomposes [off, off+size) into per-stripe chunk ranges.
func (g *Group) forEachStripe(off, size int64, fn func(stripe, chunkFirst, chunkLast int64)) {
	if off < 0 || size <= 0 || off+size > g.Capacity() {
		panic(fmt.Sprintf("raid: invalid extent off=%d size=%d cap=%d", off, size, g.Capacity())) //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	sds := g.cfg.StripeDataSize()
	end := off + size
	for off < end {
		stripe := off / sds
		in := off - stripe*sds
		n := sds - in
		if off+n > end {
			n = end - off
		}
		first := in / g.cfg.ChunkSize
		last := (in + n - 1) / g.cfg.ChunkSize
		fn(stripe, first, last)
		off += n
	}
}

// stripeDegraded reports whether the stripe has an offline member whose
// chunk would have been read directly.
func (g *Group) stripeDegraded(stripe int64) bool {
	if len(g.offline) == 0 {
		return false
	}
	// With rotating parity every member carries data on most stripes;
	// treat any offline member as degrading the stripe (conservative).
	return true
}

// FailDisk takes member m offline (drive failure or pulled drive). It
// returns the resulting state. More than ParityDisks concurrent failures
// transition the group to Failed and count lost stripes.
func (g *Group) FailDisk(m int) State {
	if m < 0 || m >= g.cfg.Width() {
		panic("raid: bad member index") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	if g.offline[m] {
		return g.state
	}
	g.offline[m] = true
	if len(g.offline) > g.cfg.ParityDisks {
		g.state = Failed
		g.LostStripes = g.stripes
		// Cancel the rebuild cleanly: event, cursor, and member are
		// cleared together, and queued replacements die with the group.
		g.cancelRebuild()
		g.pending = sim.Queue[pendingRebuild]{}
		return g.state
	}
	if g.state != Rebuilding {
		g.state = Degraded
	}
	return g.state
}

// RestoreDisk brings offline member m back intact without a rebuild —
// an enclosure repower or a reseated drive, where the controller's
// dirty-region tracking makes the member immediately consistent. If m
// was the member being rebuilt, the rebuild is cancelled cleanly and
// any queued replacement for another member starts. Restoring a member
// of a Failed group changes nothing: the data is already gone.
//
//simlint:allow test-only-export fault injector the integrity tests revive a member with
func (g *Group) RestoreDisk(m int) State {
	if m < 0 || m >= g.cfg.Width() {
		panic("raid: bad member index") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	if g.state == Failed || !g.offline[m] {
		return g.state
	}
	delete(g.offline, m)
	if g.state == Rebuilding {
		if g.rebuildMember != m {
			return g.state // some other member is still rebuilding
		}
		g.cancelRebuild()
	}
	if len(g.offline) == 0 {
		g.state = Healthy
	} else {
		g.state = Degraded
	}
	g.startQueuedRebuild()
	return g.state
}

// cancelRebuild clears every piece of rebuild bookkeeping together —
// event, cursor, member, and the generation that orphans any in-flight
// batch continuation.
func (g *Group) cancelRebuild() {
	g.rebuildEvent.Cancel()
	g.rebuildMember = -1
	g.rebuildNext = 0
	g.rebuildGen++
}

// startQueuedRebuild begins the next queued rebuild whose member is
// still offline. Entries whose member came back (restored, or rebuilt
// under an earlier replacement) complete vacuously.
func (g *Group) startQueuedRebuild() {
	for g.pending.Len() > 0 && g.state != Rebuilding && g.state != Failed {
		p, _ := g.pending.Pop()
		if !g.offline[p.member] {
			if p.done != nil {
				g.eng.After(0, p.done)
			}
			continue
		}
		g.beginRebuild(p.member, p.repl, p.done)
	}
}

// StartRebuild begins background reconstruction of offline member m onto
// a replacement drive. Reconstruction reads every surviving member and
// writes the replacement, RebuildChunk stripes per batch, interleaving
// with foreground I/O on the shared disks. done (may be nil) fires when
// the rebuild completes.
func (g *Group) StartRebuild(m int, replacement *disk.Disk, done func()) {
	if !g.offline[m] {
		panic("raid: rebuilding an online member") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	if g.state == Failed {
		panic("raid: rebuild on failed group") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	if g.state == Rebuilding {
		// One rebuild at a time, like a real controller: a second
		// replacement arriving mid-rebuild waits its turn instead of
		// clobbering the running rebuild's cursor.
		g.pending.Push(pendingRebuild{member: m, repl: replacement, done: done})
		return
	}
	g.beginRebuild(m, replacement, done)
}

func (g *Group) beginRebuild(m int, replacement *disk.Disk, done func()) {
	replacement.Tracer = g.tracer
	g.dsks[m] = replacement
	g.state = Rebuilding
	g.rebuildMember = m
	g.rebuildNext = 0
	g.rebuildGen++
	r := g.rebuild
	if r == nil || r.busy {
		// A batch of a cancelled rebuild may still be reading into the
		// old record; it finds its generation stale when it fires.
		r = newRebuildBatch(g)
		g.rebuild = r
	}
	r.gen, r.done = g.rebuildGen, done
	r.step()
}

// RebuildProgress returns the fraction of stripes reconstructed, in
// [0, 1], when rebuilding; 1 when healthy.
//
//simlint:allow test-only-export read-only accessor the rebuild tests assert
func (g *Group) RebuildProgress() float64 {
	if g.state != Rebuilding {
		if g.state == Healthy {
			return 1
		}
		return 0
	}
	return float64(g.rebuildNext) / float64(g.stripes)
}

// rebuildBatch is one rebuild's chain of batches: its generation, its
// done and, while a batch is reading, that batch's barrier and span.
// Each group keeps one and reuses it from batch to batch and rebuild
// to rebuild, so a steady-state batch allocates nothing.
type rebuildBatch struct {
	g    *Group
	gen  uint64
	done func()
	b    sim.Barrier
	sp   spantrace.SpanID
	busy bool   // a batch's reads are outstanding
	fire func() // r.finish, bound once
	next func() // r.step, bound once, for the pause timer
}

func newRebuildBatch(g *Group) *rebuildBatch {
	r := &rebuildBatch{g: g}
	r.fire, r.next = r.finish, r.step
	return r
}

// step reconstructs the next RebuildChunk stripes, or completes the
// rebuild when none are left.
func (r *rebuildBatch) step() {
	g := r.g
	total := g.stripes
	if g.rebuildNext >= total {
		// Rebuild complete: member back online, bookkeeping cleared as
		// one unit, then any queued replacement gets its turn.
		delete(g.offline, g.rebuildMember)
		if len(g.offline) == 0 {
			g.state = Healthy
		} else {
			g.state = Degraded
		}
		g.rebuildMember = -1
		g.rebuildNext = 0
		done := r.done
		r.done = nil
		if done != nil {
			done()
		}
		g.startQueuedRebuild()
		return
	}
	n := g.RebuildChunk
	if g.rebuildNext+n > total {
		n = total - g.rebuildNext
	}
	first := g.rebuildNext
	g.rebuildNext += n
	size := n * g.cfg.ChunkSize
	r.busy = true
	// Rebuild batches are background work with no client request to
	// parent to: self-sample them as roots so rebuild interference is
	// visible in chaos-campaign traces.
	r.sp = g.tracer.SampleRoot(spantrace.RAID, "rebuild-batch", size)
	r.b.Reset(r.fire)
	// Read n contiguous chunks from each survivor, write to replacement.
	old := g.tracer.Swap(r.sp)
	for i := 0; i < g.cfg.Width(); i++ {
		if i == g.rebuildMember || g.offline[i] {
			continue
		}
		r.b.Add(1)
		g.dsks[i].Submit(disk.Op{LBA: first * g.cfg.ChunkSize, Size: size}, r.b.DoneFunc())
	}
	r.b.Add(1)
	g.dsks[g.rebuildMember].Submit(disk.Op{Write: true, LBA: first * g.cfg.ChunkSize, Size: size}, r.b.DoneFunc())
	// Latent errors on the survivors surface here, with parity margin
	// already spent on the rebuilding member — repair or escalate.
	g.checkRange(first*g.cfg.ChunkSize, size, false, &r.b)
	g.tracer.Swap(old)
	r.b.Arm()
}

// finish ends a batch's span and paces the next batch, unless the
// rebuild was cancelled or superseded while the batch was reading.
func (r *rebuildBatch) finish() {
	g := r.g
	g.tracer.End(r.sp)
	r.busy = false
	if g.state != Rebuilding || g.rebuildGen != r.gen {
		return
	}
	if g.RebuildPause > 0 {
		g.rebuildEvent = g.eng.After(g.RebuildPause, r.next)
		return
	}
	r.step()
}
