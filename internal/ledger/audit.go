package ledger

import (
	"fmt"
	"math"
)

// Finding is one integrity violation the auditor located. Epoch is the
// anchoring epoch the violation falls in (-1 when no epoch can be
// attributed) and Seq the offending entry (-1 for anchor-level
// findings) — enough to pull the incident window out with Replay.
type Finding struct {
	Class  string `json:"class"`
	Epoch  int    `json:"epoch"`
	Seq    int64  `json:"seq"`
	Detail string `json:"detail"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s (epoch %d, seq %d): %s", f.Class, f.Epoch, f.Seq, f.Detail)
}

// Finding classes. Audit emits the internal-consistency classes;
// AuditAgainst emits the trusted-root classes.
const (
	// Internal consistency.
	ClassSequenceGap    = "sequence-gap"    // entry numbering skips or repeats
	ClassChainBreak     = "chain-break"     // entry's Prev is not the predecessor's hash
	ClassEntryMutation  = "entry-mutation"  // stored hash does not match the payload
	ClassMalformed      = "malformed"       // undecodable digest or empty batch
	ClassAnchorBreak    = "anchor-break"    // anchor's Prev is not the predecessor anchor's hash
	ClassAnchorMutation = "anchor-mutation" // stored anchor hash does not match its fields
	ClassCoverageGap    = "coverage-gap"    // anchors skip or overlap entry ranges
	ClassBatchMismatch  = "batch-mismatch"  // recomputed Merkle root differs from the anchor
	ClassTruncation     = "truncation"      // an anchor covers entries the export no longer has
	ClassUnanchoredTail = "unanchored-tail" // entries past the last anchor (ledger not closed)
	ClassHeadMismatch   = "head-mismatch"   // export head is not the last anchor's hash
	// Against trusted roots.
	ClassHistoryTruncation = "history-truncation" // trusted epochs missing from the export
	ClassRootDivergence    = "root-divergence"    // forged history: first root that disagrees
	ClassUntrustedTail     = "untrusted-tail"     // export anchored past the trusted sequence
)

// Audit verifies an export's internal consistency: the entry hash
// chain, the anchor hash chain, anchor coverage of the entry sequence,
// and every batch's Merkle root. A clean closed ledger returns nil
// findings. Findings are ordered entries first, then anchors.
func Audit(exp *Export) []Finding {
	var out []Finding
	epochOf := entryEpochFunc(exp)

	prev := genesis
	for i := range exp.Entries {
		e := &exp.Entries[i]
		seq := int64(i)
		if e.Seq != uint64(i) {
			out = append(out, Finding{ClassSequenceGap, epochOf(i), seq,
				fmt.Sprintf("entry at index %d carries seq %d", i, e.Seq)})
		}
		if e.Prev != prev {
			out = append(out, Finding{ClassChainBreak, epochOf(i), seq,
				fmt.Sprintf("prev %.16s.. does not chain from %.16s..", e.Prev, prev)})
		}
		if pd, err := decodeDigest(e.Prev); err != nil {
			out = append(out, Finding{ClassMalformed, epochOf(i), seq, err.Error()})
		} else if hexDigest(entryDigest(pd, e.Seq, e.At, e.Actor, e.Class, e.Action, e.Detail)) != e.Hash {
			out = append(out, Finding{ClassEntryMutation, epochOf(i), seq,
				fmt.Sprintf("stored hash %.16s.. does not match the recomputed payload digest", e.Hash)})
		}
		prev = e.Hash
	}

	prevAnchor := genesis
	cover := uint64(0)
	for j := range exp.Anchors {
		a := &exp.Anchors[j]
		if a.Prev != prevAnchor {
			out = append(out, Finding{ClassAnchorBreak, a.Epoch, -1,
				fmt.Sprintf("anchor %d prev %.16s.. does not chain from %.16s..", j, a.Prev, prevAnchor)})
		}
		pd, perr := decodeDigest(a.Prev)
		root, rerr := decodeDigest(a.Root)
		if perr != nil || rerr != nil || a.Entries <= 0 {
			out = append(out, Finding{ClassMalformed, a.Epoch, -1,
				fmt.Sprintf("anchor %d: undecodable digest or %d-entry batch", j, a.Entries)})
			prevAnchor = a.Hash
			continue
		}
		if hexDigest(anchorDigest(pd, a.Epoch, a.FirstSeq, a.Entries, root)) != a.Hash {
			out = append(out, Finding{ClassAnchorMutation, a.Epoch, -1,
				fmt.Sprintf("anchor %d stored hash %.16s.. does not match its fields", j, a.Hash)})
		}
		if a.FirstSeq != cover {
			out = append(out, Finding{ClassCoverageGap, a.Epoch, int64(a.FirstSeq),
				fmt.Sprintf("anchor %d starts at seq %d, coverage ended at %d", j, a.FirstSeq, cover)})
		}
		end := a.FirstSeq + uint64(a.Entries)
		if end < a.FirstSeq {
			// The claimed range wraps uint64; saturate so it reads as
			// covering more entries than any export holds.
			end = math.MaxUint64
		}
		if end > uint64(len(exp.Entries)) {
			out = append(out, Finding{ClassTruncation, a.Epoch, int64(len(exp.Entries)),
				fmt.Sprintf("anchor %d covers seqs [%d,%d) but only %d entries remain",
					j, a.FirstSeq, end, len(exp.Entries))})
		} else if got := hexDigest(batchRoot(exp.Entries[a.FirstSeq:end])); got != a.Root {
			out = append(out, Finding{ClassBatchMismatch, a.Epoch, int64(a.FirstSeq),
				fmt.Sprintf("anchor %d root %.16s.. but batch recomputes to %.16s..", j, a.Root, got)})
		}
		if end > cover {
			cover = end
		}
		prevAnchor = a.Hash
	}
	if cover < uint64(len(exp.Entries)) {
		out = append(out, Finding{ClassUnanchoredTail, epochOf(int(cover)), int64(cover),
			fmt.Sprintf("%d entries past the last anchor (ledger not closed?)",
				uint64(len(exp.Entries))-cover)})
	}
	if exp.Head != prevAnchor {
		out = append(out, Finding{ClassHeadMismatch, -1, -1,
			fmt.Sprintf("export head %.16s.. but anchor chain ends at %.16s..", exp.Head, prevAnchor)})
	}
	return out
}

// AuditAgainst verifies an export against a trusted root sequence (the
// verifier's "on-chain" memory, e.g. a prior run's RootRefs). It
// catches what internal consistency alone cannot: a history truncated
// at a batch boundary, and a forged-but-internally-consistent suffix —
// an attacker who rewrote the tail and recomputed every hash still
// cannot reproduce the anchored roots. The first divergent epoch is
// identified; internal findings from Audit are prepended.
func AuditAgainst(exp *Export, trusted []RootRef) []Finding {
	out := Audit(exp)
	for i, tr := range trusted {
		if i >= len(exp.Anchors) {
			out = append(out, Finding{ClassHistoryTruncation, tr.Epoch, -1,
				fmt.Sprintf("trusted roots continue for %d more batches (next epoch %d) but the export's anchors stop",
					len(trusted)-i, tr.Epoch)})
			return out
		}
		a := exp.Anchors[i]
		if a.Root != tr.Root || a.Epoch != tr.Epoch {
			out = append(out, Finding{ClassRootDivergence, tr.Epoch, int64(a.FirstSeq),
				fmt.Sprintf("batch %d: trusted root %.16s.. (epoch %d) vs presented %.16s.. (epoch %d)",
					i, tr.Root, tr.Epoch, a.Root, a.Epoch)})
			return out
		}
	}
	if len(exp.Anchors) > len(trusted) {
		a := exp.Anchors[len(trusted)]
		out = append(out, Finding{ClassUntrustedTail, a.Epoch, int64(a.FirstSeq),
			fmt.Sprintf("%d anchored batches beyond the trusted sequence (first at epoch %d)",
				len(exp.Anchors)-len(trusted), a.Epoch)})
	}
	return out
}

// batchRoot recomputes the Merkle root over a batch's stored entry
// hashes. An undecodable stored hash contributes a zero leaf, which
// can never match an honest root.
func batchRoot(entries []Entry) [32]byte {
	leaves := make([][32]byte, len(entries))
	for i, e := range entries {
		d, err := decodeDigest(e.Hash)
		if err == nil {
			leaves[i] = d
		}
	}
	return merkleRoot(leaves)
}

// entryEpochFunc attributes an entry index to an anchoring epoch:
// through the covering anchor when one exists, else derived from the
// entry's own timestamp.
func entryEpochFunc(exp *Export) func(i int) int {
	return func(i int) int {
		for _, a := range exp.Anchors {
			if uint64(i) >= a.FirstSeq && uint64(i) < a.FirstSeq+uint64(a.Entries) {
				return a.Epoch
			}
		}
		if i >= 0 && i < len(exp.Entries) && exp.EpochNS > 0 {
			return int(int64(exp.Entries[i].At) / exp.EpochNS)
		}
		return -1
	}
}
