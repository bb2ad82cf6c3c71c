package lustre

import (
	"fmt"

	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
)

// JournalMode selects how the OST's file system journal commits. Stock
// ldiskfs committed the journal synchronously into the data LUN on the
// write path; OLCF direct-funded "high-performance Lustre journaling"
// (§IV-D), which commits asynchronously off the write path.
type JournalMode int

// Journal modes.
const (
	// HPJournal is the funded asynchronous journaling (the production
	// configuration once the improvement landed).
	HPJournal JournalMode = iota
	// SyncJournal is the original behaviour: every flush pays a small
	// synchronous journal write into a dedicated LUN region, seeking
	// between journal and data.
	SyncJournal
)

// journalReserve is the LUN tail reserved for the journal region.
const journalReserve int64 = 128 << 20

// journalSyncBarrier is the per-commit ordering stall of synchronous
// ldiskfs journaling (transaction close + flush barrier).
const journalSyncBarrier = 10 * sim.Millisecond

// journalBatch is how many flushes share one synchronous journal commit
// (jbd2 groups transactions).
const journalBatch = 4

// flushDelay bounds how long a residual partial-stripe buffer may sit
// in the controller cache before being forced to disk.
const flushDelay = 50 * sim.Millisecond

// OST is one object storage target: a RAID-6 LUN behind a shared
// controller, exported through an OSS. Object writes accumulate in the
// controller's write-back cache per object and flush to disk as full
// stripes when the stream is sequential, or as partial-stripe (RMW)
// writes when fragmentation forces it. An OST must not be copied once
// built: its controller callbacks and write records point to it.
type OST struct {
	ID     int
	eng    *sim.Engine
	group  *raid.Group
	ctrl   *Controller
	src    rng.Source
	tracer *spantrace.Tracer

	// Journal selects the commit mode (§IV-D ablation).
	Journal JournalMode

	used        int64 // bytes allocated to objects
	allocPtr    int64 // next sequential allocation LBA
	journalPtr  int64 // offset within the journal region (SyncJournal)
	uncommitted int   // flushes since the last journal commit

	idleWrites    []*ostWrite // reusable Object.Write records
	stripeFlushed func()      // one-stripe flush completion, bound by stripeDone

	// Counters.
	BytesWritten      int64
	FragmentedFlushes uint64
	SequentialFlushes uint64
	JournalCommits    uint64
	// Integrity outcomes of read RPCs, as surfaced by the RAID layer:
	// EIO (unrecoverable stripe — the client gets an error, not data),
	// repaired-inline, and silently-corrupt-served.
	ReadEIOs      uint64
	RepairedReads uint64
	CorruptReads  uint64
}

// init wires a zero OST, held in Build's slab, over a RAID group and
// its SSU controller. The OST takes over src's stream.
func (o *OST) init(eng *sim.Engine, id int, group *raid.Group, ctrl *Controller, src rng.Source) {
	o.ID, o.eng, o.group, o.ctrl, o.src = id, eng, group, ctrl, src
}

// SetTracer attaches the tracing plane to this OST and everything
// below it (RAID group and member disks).
func (o *OST) SetTracer(tr *spantrace.Tracer) {
	o.tracer = tr
	o.group.SetTracer(tr)
}

// Group exposes the underlying RAID group (QA and monitoring use).
func (o *OST) Group() *raid.Group { return o.group }

// Controller returns the SSU controller this OST shares.
func (o *OST) Controller() *Controller { return o.ctrl }

// Capacity returns the LUN capacity in bytes.
func (o *OST) Capacity() int64 { return o.group.Capacity() }

// Used returns bytes allocated on the OST.
func (o *OST) Used() int64 { return o.used }

// Fill returns the fill fraction in [0, 1].
func (o *OST) Fill() float64 { return float64(o.used) / float64(o.Capacity()) }

// SetFill pre-populates the OST to the given fill fraction without
// performing I/O (used to study fill-level degradation, Lesson 10).
func (o *OST) SetFill(frac float64) {
	if frac < 0 || frac > 1 {
		panic("lustre: fill fraction out of range") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	o.used = int64(frac * float64(o.Capacity()))
	o.allocPtr = o.used
}

// FragmentProb returns the probability that the next extent allocation
// is discontiguous. Allocation stays essentially contiguous below 50%
// fill and degrades steeply beyond — the behaviour behind OLCF's
// observation of performance loss past 50-70% utilization.
func (o *OST) FragmentProb() float64 {
	f := o.Fill()
	if f <= 0.5 {
		return 0.02
	}
	p := 0.02 + (f-0.5)/0.45*0.85
	if p > 0.9 {
		p = 0.9
	}
	return p
}

// Object is a per-file allocation on one OST. Writes to the same object
// are stream-detected; its buffered bytes live in the controller cache
// until flushed.
type Object struct {
	ost        *OST
	Size       int64
	buffered   int64
	readPtr    int64
	flushTimer sim.Event
}

// NewObject allocates an object on the OST.
func (o *OST) NewObject() *Object { return &Object{ost: o} }

// Preload grows the object by n bytes without performing I/O — used to
// stage populated namespaces for tool and purge studies where only
// metadata shape matters.
func (obj *Object) Preload(n int64) {
	if n < 0 {
		panic("lustre: negative preload") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	obj.Size += n
	obj.ost.used += n
}

// seqAlloc returns the next sequential LBA for n bytes, wrapping if the
// device end is reached. Allocations are extent-aligned the way
// obdfilter lays out objects: stripe-aligned for stripe-sized-or-larger
// extents (so streaming writes stay full-stripe and avoid RMW),
// chunk-aligned below that.
func (o *OST) seqAlloc(n int64) int64 {
	align := o.group.Config().ChunkSize
	if n >= o.stripe() {
		align = o.stripe()
	}
	if rem := o.allocPtr % align; rem != 0 {
		o.allocPtr += align - rem
	}
	if o.allocPtr+n > o.dataCap() {
		o.allocPtr = 0
	}
	lba := o.allocPtr
	o.allocPtr += n
	return lba
}

// randAlloc returns a random LBA for n bytes within the used region
// (fragmented placement).
func (o *OST) randAlloc(n int64) int64 {
	limit := o.used
	if limit < n {
		limit = n
	}
	if limit+n > o.dataCap() {
		limit = o.dataCap() - n
	}
	if limit <= 0 {
		return 0
	}
	return o.src.Int63n(limit)
}

// stripe returns the full-stripe size (the optimal I/O unit; 1 MiB for
// the Spider geometry).
func (o *OST) stripe() int64 { return o.group.Config().StripeDataSize() }

// dataCap is the LUN capacity available to data (journal region
// excluded).
func (o *OST) dataCap() int64 { return o.Capacity() - journalReserve }

// flushToDisk writes one data extent, preceded by a synchronous journal
// commit into the journal region when SyncJournal is configured — the
// journal/data head ping-pong the funded async journaling eliminated.
func (o *OST) flushToDisk(lba, n int64, after func()) {
	fsp := o.tracer.Begin(spantrace.OST, "flush", o.tracer.Cur(), n)
	if fsp != 0 {
		inner := after
		after = func() {
			o.tracer.End(fsp)
			if inner != nil {
				inner()
			}
		}
	}
	if o.Journal == SyncJournal {
		o.uncommitted++
		if o.uncommitted >= journalBatch {
			o.uncommitted = 0
			o.JournalCommits++
			// The journal record itself lands in the controller cache
			// (a 4 KiB append within the reserved region); the cost the
			// funded async journaling removed is the synchronous
			// ordering barrier the write path stalls on.
			o.journalPtr += 4096
			if o.journalPtr >= journalReserve-4096 {
				o.journalPtr = 0
			}
			jsp := o.tracer.Begin(spantrace.OST, "journal-commit", fsp, 4096)
			o.ctrl.AdmitWrite(4096, nil)
			o.eng.After(journalSyncBarrier, func() {
				o.tracer.End(jsp)
				o.ctrl.Flushed(4096)
				old := o.tracer.Swap(fsp)
				o.group.Write(lba, n, after)
				o.tracer.Swap(old)
			})
			return
		}
	} else {
		o.JournalCommits++ // async commits happen off the write path
	}
	old := o.tracer.Swap(fsp)
	o.group.Write(lba, n, after)
	o.tracer.Swap(old)
}

// Write ingests size bytes of an object write RPC. done fires when the
// data is accepted into controller cache (write-back ack). Disk flushes
// proceed asynchronously: sequential streams flush as full stripes,
// fragmented allocations flush immediately as partial-stripe RMW.
func (obj *Object) Write(size int64, done func()) {
	o := obj.ost
	if size <= 0 {
		panic("lustre: object write of non-positive size") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	w := o.takeWrite()
	w.obj, w.size, w.done = obj, size, done
	w.sp = o.tracer.Begin(spantrace.OST, "ost-write", o.tracer.Cur(), size)
	o.ctrl.AdmitWrite(size, w.onAdmit)
}

// ostWrite is one Object.Write waiting for write-back admission. An
// OST keeps up to maxIdleWrites idle records and reuses them; each
// record's admission callback is bound once.
type ostWrite struct {
	obj     *Object
	size    int64
	sp      spantrace.SpanID
	done    func()
	onAdmit func() // w.admitted, bound once
}

// maxIdleWrites bounds an OST's idle ostWrite records. A completion
// frees a record before the next write takes one, so a few suffice,
// and a namespace kept alive after its run pins no more than these.
const maxIdleWrites = 16

// takeWrite returns an idle record of o, or a new one.
func (o *OST) takeWrite() *ostWrite {
	if n := len(o.idleWrites); n > 0 {
		w := o.idleWrites[n-1]
		o.idleWrites = o.idleWrites[:n-1]
		return w
	}
	w := &ostWrite{}
	w.onAdmit = w.admitted
	return w
}

// admitted buffers the admitted bytes, flushes what the stream allows
// and acks the write; the record goes back to its OST before done runs.
func (w *ostWrite) admitted() {
	obj, size, sp, done := w.obj, w.size, w.sp, w.done
	o := obj.ost
	if len(o.idleWrites) < maxIdleWrites {
		w.obj, w.done = nil, nil
		o.idleWrites = append(o.idleWrites, w)
	}
	o.BytesWritten += size
	o.used += size
	obj.Size += size
	obj.buffered += size
	old := o.tracer.Swap(sp)
	if o.src.Bool(o.FragmentProb()) {
		obj.flushFragmented()
	} else {
		obj.flushFullStripes()
	}
	obj.armFlushTimer()
	o.tracer.Swap(old)
	// The span covers admission through the write-back ack; the flush
	// continues underneath as the "flush" child.
	o.tracer.End(sp)
	if done != nil {
		done()
	}
}

// WriteSync ingests a write RPC that acknowledges only after the data
// reaches disk (no write-back ack) — the semantics obdfilter-survey
// measures, and what the benchmark suite uses for block-vs-FS overhead
// comparisons. random forces overwrite-in-place at a random position
// within the used region (a random-update workload); otherwise
// placement follows the allocator's fill-dependent policy.
func (obj *Object) WriteSync(size int64, random bool, done func()) {
	o := obj.ost
	if size <= 0 {
		panic("lustre: object write of non-positive size") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	sp := o.tracer.Begin(spantrace.OST, "ost-writesync", o.tracer.Cur(), size)
	o.ctrl.AdmitWrite(size, func() {
		o.BytesWritten += size
		o.used += size
		obj.Size += size
		var lba int64
		if random || o.src.Bool(o.FragmentProb()) {
			lba = o.randAlloc(size)
			o.FragmentedFlushes++
		} else {
			lba = o.seqAlloc(size)
			o.SequentialFlushes++
		}
		old := o.tracer.Swap(sp)
		o.flushToDisk(lba, size, func() {
			o.ctrl.Flushed(size)
			o.tracer.End(sp)
			if done != nil {
				done()
			}
		})
		o.tracer.Swap(old)
	})
}

// flushFullStripes writes out as many complete stripes as are buffered,
// sequentially allocated (no RMW).
func (obj *Object) flushFullStripes() {
	o := obj.ost
	s := obj.ost.stripe()
	for obj.buffered >= s {
		obj.buffered -= s
		lba := o.seqAlloc(s)
		o.SequentialFlushes++
		o.flushToDisk(lba, s, o.stripeDone())
	}
}

// stripeDone returns the completion of a one-stripe flush, which frees
// a stripe's bytes in the controller cache. It is bound on the OST's
// first stripe flush: most OSTs of a center never flush one.
func (o *OST) stripeDone() func() {
	if o.stripeFlushed == nil {
		o.stripeFlushed = func() { o.ctrl.Flushed(o.stripe()) }
	}
	return o.stripeFlushed
}

// flushed returns the completion of a flush of n bytes, which frees
// them in the controller cache: the OST's bound one-stripe callback
// when n is a stripe, else a new closure.
func (o *OST) flushed(n int64) func() {
	if n == o.stripe() {
		return o.stripeDone()
	}
	return func() { o.ctrl.Flushed(n) }
}

// flushFragmented forces everything buffered to a random location as a
// partial-stripe write (read-modify-write at the RAID layer unless it
// happens to be stripe-sized and aligned).
func (obj *Object) flushFragmented() {
	o := obj.ost
	if obj.buffered <= 0 {
		return
	}
	n := obj.buffered
	obj.buffered = 0
	lba := o.randAlloc(n)
	o.FragmentedFlushes++
	o.flushToDisk(lba, n, o.flushed(n))
}

// armFlushTimer (re)schedules the forced flush of a residual partial
// buffer so dirty data is bounded in time.
func (obj *Object) armFlushTimer() {
	if obj.buffered <= 0 {
		obj.flushTimer.Cancel()
		return
	}
	if obj.flushTimer.Pending() {
		return
	}
	o := obj.ost
	obj.flushTimer = o.eng.After(flushDelay, func() {
		if obj.buffered > 0 {
			n := obj.buffered
			obj.buffered = 0
			lba := o.seqAlloc(n)
			o.FragmentedFlushes++
			// Timer flushes belong to no single request: clear the
			// request context so the flush is not misattributed to
			// whatever span happens to be current when the timer fires.
			old := o.tracer.Swap(0)
			o.flushToDisk(lba, n, o.flushed(n))
			o.tracer.Swap(old)
		}
	})
}

// Read services a read RPC of size bytes. random selects a seeky access
// pattern (analytics) versus a streaming one. done fires when data is
// returned (read-through: controller service + disk read).
func (obj *Object) Read(size int64, random bool, done func()) {
	o := obj.ost
	if size <= 0 {
		panic("lustre: object read of non-positive size") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	sp := o.tracer.Begin(spantrace.OST, "ost-read", o.tracer.Cur(), size)
	o.ctrl.ServiceRead(size, func() {
		var lba int64
		if random || o.src.Bool(o.FragmentProb()) {
			lba = o.randAlloc(size)
		} else {
			if obj.readPtr+size > o.dataCap() {
				obj.readPtr = 0
			}
			lba = obj.readPtr
			obj.readPtr += size
		}
		old := o.tracer.Swap(sp)
		o.group.ReadChecked(lba, size, func(oc raid.ReadOutcome) {
			if oc.EIO {
				o.ReadEIOs++
			}
			o.RepairedReads += uint64(oc.Repaired)
			o.CorruptReads += uint64(oc.Undetected)
			o.tracer.End(sp)
			if done != nil {
				done()
			}
		})
		o.tracer.Swap(old)
	})
}

// Destroy releases the object's bytes (unlink).
func (obj *Object) Destroy() {
	o := obj.ost
	obj.flushTimer.Cancel()
	if obj.buffered > 0 {
		o.ctrl.Flushed(obj.buffered) // dirty data discarded with the object
		obj.buffered = 0
	}
	o.used -= obj.Size
	if o.used < 0 {
		o.used = 0
	}
	obj.Size = 0
}

func (o *OST) String() string {
	return fmt.Sprintf("ost%d(fill=%.1f%%)", o.ID, o.Fill()*100)
}
