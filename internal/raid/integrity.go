package raid

import (
	"sort"

	"spiderfs/internal/disk"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
)

// Read-time verification and repair. The controller checksums every
// chunk (T10-DIF-style), so a read *can* verify a stripe against
// parity — the policy knob below decides when it does. Drive-reported
// UREs are always visible (the drive says so); silent bit rot is caught
// only when a read verifies or the scrubber walks the stripe. Every
// defect outcome is counted, never panicked: data corruption is a
// first-class, observable event, not an assertion failure.

// VerifyPolicy selects when reads verify stripe checksums.
type VerifyPolicy int

const (
	// VerifyOnSuspect (default) verifies only when there is reason for
	// suspicion: the stripe is degraded, or a member drive reports a URE
	// on a needed chunk. Clean-looking reads pay no extra I/O — and
	// silent bit rot under them reaches the caller undetected.
	VerifyOnSuspect VerifyPolicy = iota
	// VerifyAlways verifies every read at full-stripe fan-out cost: no
	// silent corruption is ever served, foreground reads pay for it.
	VerifyAlways
)

func (v VerifyPolicy) String() string {
	if v == VerifyAlways {
		return "verify-always"
	}
	return "verify-on-suspect"
}

// ReadOutcome reports what a checked read actually delivered — the
// EIO-vs-repaired distinction the file-system layer surfaces to
// clients.
type ReadOutcome struct {
	// EIO: at least one stripe in the extent is unrecoverable (or the
	// group is Failed); the caller gets an error, not data.
	EIO bool
	// Repaired counts chunks reconstructed and rewritten inline.
	Repaired int
	// Undetected counts silently corrupt chunks served as good data —
	// the reader cannot see this field in real life; experiments can.
	Undetected int
}

// ScrubResult summarizes one scrub batch.
type ScrubResult struct {
	Scanned    int64 // stripes covered
	Repaired   int   // chunks reconstructed and rewritten
	Lost       int   // stripes newly escalated as unrecoverable
	Rebuilding bool  // a rebuild was in flight during the batch
}

// TotalStripes returns the number of stripes in the group.
func (g *Group) TotalStripes() int64 { return g.stripes }

// ReadChecked issues a logical read and reports the integrity outcome
// to done when the slowest involved member completes. Read is the
// outcome-blind wrapper.
func (g *Group) ReadChecked(off, size int64, done func(ReadOutcome)) {
	if g.state == Failed {
		g.IOErrors++
		if done != nil {
			g.eng.After(0, func() { done(ReadOutcome{EIO: true}) })
		}
		return
	}
	g.Reads++
	g.BytesRead += size
	oc := &ReadOutcome{}
	sp := g.tracer.Begin(spantrace.RAID, "raid-read", g.tracer.Cur(), size)
	b := sim.NewBarrier(func() {
		if sp != 0 {
			g.tracer.End(sp)
		}
		if done != nil {
			done(*oc)
		}
	})
	old := g.tracer.Swap(sp)
	g.forEachStripe(off, size, func(stripe, chunkFirst, chunkLast int64) {
		g.readStripe(stripe, chunkFirst, chunkLast, b, oc, sp)
	})
	g.tracer.Swap(old)
	b.Arm()
}

// readStripe reads one stripe's chunk range, deciding between the
// direct path and the verify path per policy.
func (g *Group) readStripe(stripe, chunkFirst, chunkLast int64, b *sim.Barrier, oc *ReadOutcome, sp spantrace.SpanID) {
	if g.lost[stripe] {
		// Already escalated as unrecoverable: EIO without disk I/O.
		g.LostStripeReads++
		oc.EIO = true
		return
	}
	ck := g.cfg.ChunkSize
	stripeOff := g.diskOffset(stripe)
	degraded := g.stripeDegraded(stripe)
	verify := degraded || g.Verify == VerifyAlways
	if !verify {
		// A drive-reported URE on any needed chunk makes the stripe
		// suspect: escalate to the verify path and repair inline.
		for k := chunkFirst; k <= chunkLast && !verify; k++ {
			m := g.chunkLocation(stripe, int(k))
			if !g.offline[m] && g.dsks[m].Scan(stripeOff, ck).UREs > 0 {
				verify = true
			}
		}
	}
	if degraded {
		g.DegradedReads++
		g.tracer.Mark(spantrace.RAID, "degraded-read", sp, (chunkLast-chunkFirst+1)*ck, "")
	}
	if verify {
		// Full-stripe fan-out: parity verification needs every chunk.
		g.tracer.Mark(spantrace.RAID, "verify", sp, int64(g.cfg.Width())*ck, "")
		for m := 0; m < g.cfg.Width(); m++ {
			g.submitTo(m, disk.Op{LBA: stripeOff, Size: ck}, b)
		}
		repaired, lost := g.checkRange(stripeOff, ck, false, b)
		oc.Repaired += repaired
		if lost > 0 {
			oc.EIO = true
		}
		return
	}
	for k := chunkFirst; k <= chunkLast; k++ {
		m := g.chunkLocation(stripe, int(k))
		if !g.offline[m] && g.dsks[m].Scan(stripeOff, ck).Silent > 0 {
			// Bit rot under an unverified read: bad data served as good.
			g.UndetectedCorruptReads++
			oc.Undetected++
			g.tracer.Mark(spantrace.RAID, "corrupt-read-undetected", sp, ck, "")
		}
		g.submitTo(m, disk.Op{LBA: stripeOff, Size: ck}, b)
	}
}

// ScrubStripes reads stripes [first, first+n) from every online member,
// verifies them, repairs what parity can reconstruct, escalates what it
// cannot, and hands the batch outcome to done. It is one throttle
// quantum: callers (the background scrubber) pace batches exactly like
// rebuildBatch paces reconstruction.
func (g *Group) ScrubStripes(first, n int64, done func(ScrubResult)) {
	total := g.TotalStripes()
	if first < 0 {
		first = 0
	}
	if first+n > total {
		n = total - first
	}
	if g.state == Failed || n <= 0 {
		if done != nil {
			g.eng.After(0, func() { done(ScrubResult{}) })
		}
		return
	}
	r := g.scrub
	if r == nil {
		r = newScrubBatch(g)
		g.scrub = r
	}
	if r.busy {
		// Overlaps the batch in flight, which owns the group's record.
		r = newScrubBatch(g)
	}
	r.busy = true
	r.res = ScrubResult{Scanned: n, Rebuilding: g.state == Rebuilding}
	r.done = done
	ck := g.cfg.ChunkSize
	off := first * ck
	size := n * ck
	g.ScrubbedStripes += n
	// Background work with no client request to parent to: self-sample
	// like rebuild batches so scrub interference shows up in traces.
	r.sp = g.tracer.SampleRoot(spantrace.RAID, "scrub-batch", size)
	r.b.Reset(r.fire)
	old := g.tracer.Swap(r.sp)
	for m := 0; m < g.cfg.Width(); m++ {
		g.submitTo(m, disk.Op{LBA: off, Size: size}, &r.b)
	}
	r.res.Repaired, r.res.Lost = g.checkRange(off, size, true, &r.b)
	g.tracer.Swap(old)
	r.b.Arm()
}

// scrubBatch is one ScrubStripes call from issue until its barrier
// fires. Each group keeps one and reuses it, so a steady-state scrub
// batch allocates nothing; a call that overlaps the batch in flight
// gets a fresh one.
type scrubBatch struct {
	g    *Group
	res  ScrubResult
	b    sim.Barrier
	sp   spantrace.SpanID
	done func(ScrubResult)
	fire func() // r.finish, bound once
	busy bool
}

func newScrubBatch(g *Group) *scrubBatch {
	r := &scrubBatch{g: g}
	r.fire = r.finish
	return r
}

// finish ends the batch's span, frees the record and reports.
func (r *scrubBatch) finish() {
	r.g.tracer.End(r.sp)
	done, res := r.done, r.res
	r.done, r.busy = nil, false
	if done != nil {
		done(res)
	}
}

// stripeHit is one defective chunk found by a range check.
type stripeHit struct {
	stripe int64
	member int
}

// checkRange scans [off, off+size) on every online member, groups the
// defects by stripe, reconstructs-and-rewrites what parity covers, and
// escalates what it cannot. The caller has already submitted the reads
// covering the range; repair writes join the same barrier. Returns the
// chunks repaired and the stripes newly lost.
func (g *Group) checkRange(off, size int64, scrub bool, b *sim.Barrier) (repaired, lost int) {
	ck := g.cfg.ChunkSize
	var hits []stripeHit
	for m := 0; m < g.cfg.Width(); m++ {
		if g.offline[m] {
			continue
		}
		g.dsks[m].ScanChunks(off, size, ck, func(chunkLBA int64, sr disk.ScanResult) {
			g.UREsDetected += uint64(sr.UREs)
			g.ChecksumMismatches += uint64(sr.Silent)
			hits = append(hits, stripeHit{stripe: chunkLBA / ck, member: m})
		})
	}
	if len(hits) == 0 {
		return 0, 0
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].stripe != hits[j].stripe {
			return hits[i].stripe < hits[j].stripe
		}
		return hits[i].member < hits[j].member
	})
	i := 0
	for i < len(hits) {
		s := hits[i].stripe
		first := i
		for i < len(hits) && hits[i].stripe == s {
			i++
		}
		members := hits[first:i]
		if g.lost[s] {
			continue // already escalated; stays lost
		}
		if g.state == Rebuilding {
			// A latent error encountered while a rebuild has parity
			// margin spent: the paper's double-failure window, measured.
			g.RebuildLatentHits += uint64(len(members))
		}
		if len(g.offline)+len(members) > g.cfg.ParityDisks {
			g.markStripeLost(s)
			lost++
			continue
		}
		for _, h := range members {
			// Reconstruct-and-rewrite: the surviving chunks were already
			// read by the caller; the rewrite heals the member's media.
			g.submitTo(h.member, disk.Op{Write: true, LBA: g.diskOffset(s), Size: ck}, b)
			g.RepairedChunks++
			if scrub {
				g.ScrubRepairs++
			}
			g.tracer.Mark(spantrace.RAID, "verify-repair", g.tracer.Cur(), ck, "")
			repaired++
		}
	}
	return repaired, lost
}

// markStripeLost escalates a stripe whose defects exceed parity: a
// data-loss event, counted and surfaced, never panicked.
func (g *Group) markStripeLost(stripe int64) {
	if g.lost == nil {
		g.lost = map[int64]bool{}
	}
	g.lost[stripe] = true
	g.UnrecoverableStripes++
	g.tracer.Mark(spantrace.RAID, "stripe-lost", g.tracer.Cur(), g.cfg.StripeDataSize(), "")
	if g.OnStripeLoss != nil {
		g.OnStripeLoss(stripe)
	}
}
