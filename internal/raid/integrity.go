package raid

import (
	"cmp"
	"slices"

	"spiderfs/internal/disk"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
)

// Read-time verification and repair. The controller checksums every
// chunk (T10-DIF-style), so a read *can* verify a stripe against
// parity; it does so only when there is reason for suspicion: the
// stripe is degraded, or a member drive reports a URE on a needed
// chunk. Clean-looking reads pay no extra I/O, and silent bit rot under
// them reaches the caller undetected: it is caught only when the
// scrubber (scrub.go) walks the stripe. Every defect outcome is
// counted, never panicked: data corruption is a first-class, observable
// event, not an assertion failure.

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
// direct path and the verify path.
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
	verify := degraded
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
		repaired, lost := g.checkRange(stripeOff, ck, b)
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
//
// The defects are gathered in the group's hits buffer, taken for the
// call and given back after it, so a warmed group's scan allocates
// nothing (a check nested in a stripe-loss hook starts a buffer of its
// own).
func (g *Group) checkRange(off, size int64, b *sim.Barrier) (repaired, lost int) {
	ck := g.cfg.ChunkSize
	g.StripesChecked += uint64((size + ck - 1) / ck)
	hits := g.hits[:0]
	g.hits = nil
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
	// Each (stripe, member) key occurs once, so any sort gives one order.
	slices.SortFunc(hits, func(x, y stripeHit) int {
		if c := cmp.Compare(x.stripe, y.stripe); c != 0 {
			return c
		}
		return cmp.Compare(x.member, y.member)
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
			g.tracer.Mark(spantrace.RAID, "verify-repair", g.tracer.Cur(), ck, "")
			repaired++
		}
	}
	g.hits = hits[:0]
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
