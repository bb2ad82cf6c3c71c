package ledger

import (
	"encoding/json"
	"math"
	"testing"

	"spiderfs/internal/sim"
)

// fixture builds the canonical adversarial-testing ledger: nine
// entries, three per epoch across epochs 0/1/2, closed. Entry seqs
// 0-2 are epoch 0, 3-5 epoch 1, 6-8 epoch 2.
func fixture(t *testing.T) (*Export, []RootRef) {
	t.Helper()
	l := New(Config{Epoch: sim.Hour})
	for e := 0; e < 3; e++ {
		for i := 0; i < 3; i++ {
			at := sim.Time(e)*sim.Hour + sim.Time(i+1)*sim.Minute
			mustAppend(t, l, at, "oss1", "software", "oss-crash", "fixture")
		}
	}
	l.Close()
	if n := l.AnchorCount(); n != 3 {
		t.Fatalf("fixture anchored %d batches, want 3", n)
	}
	exp := l.Export()
	return exp, exp.RootRefs()
}

// clone deep-copies an export so each tamper starts from pristine state.
func clone(t *testing.T, exp *Export) *Export {
	t.Helper()
	data, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	var out Export
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// requireFinding asserts findings contain class at the given epoch.
func requireFinding(t *testing.T, findings []Finding, class string, epoch int) {
	t.Helper()
	for _, f := range findings {
		if f.Class == class && f.Epoch == epoch {
			return
		}
	}
	t.Fatalf("no %s finding at epoch %d; got %v", class, epoch, findings)
}

func TestAuditCleanFixture(t *testing.T) {
	exp, trusted := fixture(t)
	if fs := Audit(exp); len(fs) != 0 {
		t.Fatalf("clean fixture audits dirty: %v", fs)
	}
	if fs := AuditAgainst(exp, trusted); len(fs) != 0 {
		t.Fatalf("clean fixture diverges from its own roots: %v", fs)
	}
}

// Tamper class 1: a single-bit mutation of one entry. Flipping a
// payload bit is caught by the entry digest (the stored hash no longer
// matches); flipping a bit of the stored hash instead is caught by the
// chain, the digest, and the anchored Merkle root. Both localize to
// epoch 1.
func TestAuditDetectsEntryMutation(t *testing.T) {
	exp, _ := fixture(t)
	tampered := clone(t, exp)
	d := []byte(tampered.Entries[4].Detail)
	d[0] ^= 0x01
	tampered.Entries[4].Detail = string(d)
	fs := Audit(tampered)
	requireFinding(t, fs, ClassEntryMutation, 1)

	hashFlip := clone(t, exp)
	h := []byte(hashFlip.Entries[4].Hash)
	if h[0] == '0' {
		h[0] = '1'
	} else {
		h[0] = '0'
	}
	hashFlip.Entries[4].Hash = string(h)
	fs = Audit(hashFlip)
	requireFinding(t, fs, ClassEntryMutation, 1)
	requireFinding(t, fs, ClassChainBreak, 1)
	requireFinding(t, fs, ClassBatchMismatch, 1)
}

// Tamper class 2: deleting an entry. The dense sequence numbering
// breaks at the hole, the hash chain breaks, and the anchors now cover
// more entries than exist.
func TestAuditDetectsEntryDeletion(t *testing.T) {
	exp, _ := fixture(t)
	tampered := clone(t, exp)
	tampered.Entries = append(tampered.Entries[:4], tampered.Entries[5:]...)
	fs := Audit(tampered)
	requireFinding(t, fs, ClassSequenceGap, 1)
	requireFinding(t, fs, ClassChainBreak, 1)
	requireFinding(t, fs, ClassTruncation, 2)
}

// Tamper class 3: chain truncation at a batch boundary — drop epoch
// 2's entries and its anchor and regress the head. Internally the
// prefix is perfectly consistent; only the trusted root sequence
// exposes that history after epoch 1 was destroyed.
func TestAuditDetectsChainTruncation(t *testing.T) {
	exp, trusted := fixture(t)
	tampered := clone(t, exp)
	tampered.Entries = tampered.Entries[:6]
	tampered.Anchors = tampered.Anchors[:2]
	tampered.Head = tampered.Anchors[1].Hash
	if fs := Audit(tampered); len(fs) != 0 {
		t.Fatalf("boundary truncation should be internally consistent, got %v", fs)
	}
	fs := AuditAgainst(tampered, trusted)
	requireFinding(t, fs, ClassHistoryTruncation, 2)
}

// Tamper class 4: batch reorder — swapping two anchors breaks the
// anchor hash chain where the displaced batch lands, and reordering
// entries inside a batch breaks the entry chain and the batch root.
func TestAuditDetectsBatchReorder(t *testing.T) {
	exp, _ := fixture(t)
	tampered := clone(t, exp)
	tampered.Anchors[0], tampered.Anchors[1] = tampered.Anchors[1], tampered.Anchors[0]
	fs := Audit(tampered)
	requireFinding(t, fs, ClassAnchorBreak, 1)

	inBatch := clone(t, exp)
	inBatch.Entries[3], inBatch.Entries[4] = inBatch.Entries[4], inBatch.Entries[3]
	fs = Audit(inBatch)
	requireFinding(t, fs, ClassChainBreak, 1)
	requireFinding(t, fs, ClassBatchMismatch, 1)
}

// Tamper class 5: a forged-but-internally-consistent suffix. The
// attacker keeps epochs 0-1, rewrites epoch 2's history, and
// recomputes every hash and anchor honestly — the forgery passes
// Audit, and only the trusted roots expose the divergence at epoch 2.
func TestAuditDetectsForgedSuffix(t *testing.T) {
	exp, trusted := fixture(t)
	prefix := clone(t, exp)
	prefix.Entries = prefix.Entries[:6]
	prefix.Anchors = prefix.Anchors[:2]
	prefix.Head = prefix.Anchors[1].Hash
	forger, err := Resume(prefix)
	if err != nil {
		t.Fatalf("Resume(prefix): %v", err)
	}
	// Rewrite epoch 2: same cadence, different history.
	for i := 0; i < 3; i++ {
		at := 2*sim.Hour + sim.Time(i+1)*sim.Minute
		mustAppend(t, forger, at, "oss1", "software", "all-quiet", "nothing happened here")
	}
	forger.Close()
	forged := forger.Export()
	if fs := Audit(forged); len(fs) != 0 {
		t.Fatalf("forged suffix should be internally consistent, got %v", fs)
	}
	if len(forged.Anchors) != len(exp.Anchors) {
		t.Fatalf("forgery anchored %d batches, want %d", len(forged.Anchors), len(exp.Anchors))
	}
	fs := AuditAgainst(forged, trusted)
	requireFinding(t, fs, ClassRootDivergence, 2)
}

// An unanchored tail (ledger never closed) is reported, not ignored.
func TestAuditFlagsUnanchoredTail(t *testing.T) {
	l := New(Config{Epoch: sim.Hour})
	mustAppend(t, l, sim.Minute, "a", "c", "k", "")
	mustAppend(t, l, 2*sim.Minute, "a", "c", "k", "")
	// No Close: the open batch is exported unanchored.
	fs := Audit(l.Export())
	requireFinding(t, fs, ClassUnanchoredTail, 0)
}

// An anchor whose claimed range overflows uint64 is a truncation
// finding, not a slice-bounds panic: the export is untrusted input.
func TestAuditOverflowingAnchorRange(t *testing.T) {
	exp, trusted := fixture(t)
	exp.Anchors[2].FirstSeq = math.MaxUint64
	exp.Anchors[2].Entries = 2
	requireFinding(t, Audit(exp), ClassTruncation, 2)
	requireFinding(t, AuditAgainst(exp, trusted), ClassTruncation, 2)
	if _, err := Resume(exp); err == nil {
		t.Fatal("resume accepted an export whose anchor overflows the entry range")
	}
}
