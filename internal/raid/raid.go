// Package raid models the DDN-style RAID-6 (8+2) storage arrays behind
// the Spider object storage targets: chunked striping with rotating
// parity, read-modify-write for partial-stripe writes, degraded-mode
// reconstruction, background rebuild and scrub, and the controller
// write journal whose loss caused the 2010 Spider I incident (§IV-E of
// the paper).
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
// each group). All I/O is asynchronous against the owning engine. A
// Group must not be copied once built: its write records and batches
// point to it.
type Group struct {
	ID   int
	cfg  GroupConfig
	eng  *sim.Engine
	dsks []*disk.Disk
	// stripes is the group's stripe count, fixed by its members'
	// capacity at NewGroup (replacements are the same product).
	stripes int64

	state   State
	offline map[int]bool // member index -> offline; nil until a member fails
	tracer  *spantrace.Tracer

	// lost tracks stripes escalated as unrecoverable (defects beyond
	// parity), so repeat encounters don't re-escalate the same loss.
	lost map[int64]bool
	// OnStripeLoss, when set, fires once per stripe escalated as
	// unrecoverable — the chaos ledger's data-loss accounting hook.
	OnStripeLoss func(stripe int64)
	// hits is checkRange's reusable defect list (integrity.go).
	hits []stripeHit
	// idleWrites and idleRMWs hold reusable Write records.
	idleWrites []*writeOp
	idleRMWs   []*rmwStripe

	// rebuild bookkeeping
	rebuild       *rebuildBatch // reusable batch record, built on the first rebuild
	rebuildMember int
	rebuildNext   int64 // next stripe index to reconstruct
	rebuildEvent  sim.Event
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
	UndetectedCorruptReads uint64 // silently corrupt chunks served to callers
	UnrecoverableStripes   int64  // stripes with defects beyond parity
	LostStripeReads        uint64 // reads answered EIO from an unrecoverable stripe
	RebuildLatentHits      uint64 // latent errors hit while a rebuild was in flight
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
	g := new(Group)
	g.init(eng, id, cfg, members)
	return g
}

// init readies a zero Group in place, wherever it is held.
func (g *Group) init(eng *sim.Engine, id int, cfg GroupConfig, members []*disk.Disk) {
	if len(members) != cfg.Width() {
		panic(fmt.Sprintf("raid: group wants %d disks, got %d", cfg.Width(), len(members))) //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	g.ID, g.cfg, g.eng, g.dsks = id, cfg, eng, members
	g.stripes = members[0].Config().Capacity / cfg.ChunkSize
	g.state = Healthy
	g.rebuildMember = -1
	g.RebuildChunk = 64
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
// not yet rebuilt.
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
//simlint:allow test-only-export layout map the lustre read-path tests plant targeted defects with
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
// stripes fan out to all surviving members (reconstruction); degraded
// or URE-suspect stripes are verified and repaired inline. ReadChecked
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
	g.BytesWritten += size
	sp := g.tracer.Begin(spantrace.RAID, "raid-write", g.tracer.Cur(), size)
	op := g.takeWrite()
	op.sp, op.done = sp, done
	b := &op.b
	b.Reset(op.fire)
	old := g.tracer.Swap(sp)
	g.forEachStripe(off, size, func(stripe, chunkFirst, chunkLast int64) {
		if chunkFirst == 0 && chunkLast == int64(g.cfg.DataDisks-1) {
			g.FullStripeWrite++
			g.submitStripe(stripe, chunkFirst, chunkLast, true, b)
			return
		}
		// Read-modify-write: phase 1 reads old chunks + parity, phase 2
		// writes the new versions.
		g.PartialWrite++
		r := g.takeRMW()
		r.b, r.stripe, r.first, r.last = b, stripe, chunkFirst, chunkLast
		r.sp = g.tracer.Begin(spantrace.RAID, "rmw", sp, (chunkLast-chunkFirst+1)*g.cfg.ChunkSize)
		r.parent = sp
		if r.sp != 0 {
			r.parent = r.sp
		}
		b.Add(1)
		r.read.Reset(r.onRead)
		old1 := g.tracer.Swap(r.parent)
		g.submitStripe(stripe, chunkFirst, chunkLast, false, &r.read)
		g.tracer.Swap(old1)
		r.read.Arm()
	})
	g.tracer.Swap(old)
	b.Arm()
}

// submitStripe issues one chunk op for each of the stripe's data
// chunks first..last, then one for each parity chunk, all on barrier b.
func (g *Group) submitStripe(stripe, first, last int64, write bool, b *sim.Barrier) {
	op := disk.Op{Write: write, LBA: g.diskOffset(stripe), Size: g.cfg.ChunkSize}
	for k := first; k <= last; k++ {
		g.submitTo(g.chunkLocation(stripe, int(k)), op, b)
	}
	p0, p1 := g.parityLocations(stripe)
	g.submitTo(p0, op, b)
	g.submitTo(p1, op, b)
}

// writeOp is one Write's fan-out: its barrier, span and done. A group
// keeps up to maxIdleWrites idle records and reuses them; the barrier
// and its DoneFunc are bound once per record, so a full-stripe write
// allocates nothing.
type writeOp struct {
	g    *Group
	b    sim.Barrier
	sp   spantrace.SpanID
	done func()
	fire func() // op.finish, bound once
}

// maxIdleWrites bounds a group's idle writeOp and rmwStripe records. A
// completion frees a record before the next write takes one, so a few
// suffice, and a group kept alive after its run pins no more than these.
const maxIdleWrites = 16

// takeWrite returns an idle record of g, or a new one.
func (g *Group) takeWrite() *writeOp {
	if n := len(g.idleWrites); n > 0 {
		op := g.idleWrites[n-1]
		g.idleWrites = g.idleWrites[:n-1]
		return op
	}
	op := &writeOp{g: g}
	op.fire = op.finish
	return op
}

// finish ends the write's span and calls its done; the record goes
// back to its group first.
func (op *writeOp) finish() {
	g, sp, done := op.g, op.sp, op.done
	if len(g.idleWrites) < maxIdleWrites {
		op.done = nil
		g.idleWrites = append(g.idleWrites, op)
	}
	g.tracer.End(sp)
	if done != nil {
		done()
	}
}

// rmwStripe is one partial stripe of a write: its phase barriers, read
// then write, and its "rmw" span. A group reuses these records as it
// does writeOps.
type rmwStripe struct {
	g           *Group
	b           *sim.Barrier // the write's barrier, done when phase 2 is
	stripe      int64
	first, last int64 // data chunks written
	sp, parent  spantrace.SpanID
	read, write sim.Barrier
	// r.readDone and r.writeDone, bound once.
	onRead, onWrite func()
}

// takeRMW returns an idle rmwStripe record of g, or a new one.
func (g *Group) takeRMW() *rmwStripe {
	if n := len(g.idleRMWs); n > 0 {
		r := g.idleRMWs[n-1]
		g.idleRMWs = g.idleRMWs[:n-1]
		return r
	}
	r := &rmwStripe{g: g}
	r.onRead, r.onWrite = r.readDone, r.writeDone
	return r
}

// readDone starts phase 2 once the old chunks and parity are read.
func (r *rmwStripe) readDone() {
	g := r.g
	r.write.Reset(r.onWrite)
	old := g.tracer.Swap(r.parent)
	g.submitStripe(r.stripe, r.first, r.last, true, &r.write)
	g.tracer.Swap(old)
	r.write.Arm()
}

// writeDone ends the stripe's span and completes its share of the
// write; the record goes back to its group first.
func (r *rmwStripe) writeDone() {
	g, b, sp := r.g, r.b, r.sp
	if len(g.idleRMWs) < maxIdleWrites {
		r.b = nil
		g.idleRMWs = append(g.idleRMWs, r)
	}
	g.tracer.End(sp)
	b.Done()
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
	if g.offline == nil {
		g.offline = map[int]bool{}
	}
	g.offline[m] = true
	if len(g.offline) > g.cfg.ParityDisks {
		g.state = Failed
		g.LostStripes = g.stripes
		// Cancel the rebuild cleanly: event, cursor, and member are
		// cleared together, and queued replacements die with the group.
		// Failed is terminal, so a batch still reading finds the state
		// changed when it finishes and schedules nothing.
		g.rebuildEvent.Cancel()
		g.rebuildMember = -1
		g.rebuildNext = 0
		g.pending = sim.Queue[pendingRebuild]{}
		return g.state
	}
	if g.state != Rebuilding {
		g.state = Degraded
	}
	return g.state
}

// startQueuedRebuild begins the next queued rebuild whose member is
// still offline. Entries whose member was rebuilt under an earlier
// replacement complete vacuously.
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
	r := g.rebuild
	if r == nil {
		r = newRebuildBatch(g)
		g.rebuild = r
	}
	r.done = done
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

// rebuildBatch is one rebuild's chain of batches: its done and, while
// a batch is reading, that batch's barrier and span. Each group keeps
// one and reuses it from batch to batch and rebuild to rebuild, so a
// steady-state batch allocates nothing. A rebuild begins only once the
// last batch has finished: the one way to cancel a rebuild is FailDisk
// taking the group to Failed, and no rebuild starts on a Failed group.
type rebuildBatch struct {
	g    *Group
	done func()
	b    sim.Barrier
	sp   spantrace.SpanID
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
	g.checkRange(first*g.cfg.ChunkSize, size, &r.b)
	g.tracer.Swap(old)
	r.b.Arm()
}

// finish ends a batch's span and paces the next batch, unless the
// group failed while the batch was reading.
func (r *rebuildBatch) finish() {
	g := r.g
	g.tracer.End(r.sp)
	if g.state != Rebuilding {
		return
	}
	if g.RebuildPause > 0 {
		g.rebuildEvent = g.eng.After(g.RebuildPause, r.next)
		return
	}
	r.step()
}
