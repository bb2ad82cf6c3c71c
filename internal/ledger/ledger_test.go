package ledger

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"spiderfs/internal/sim"
)

// mustAppend keeps the tests honest about Append's error contract.
func mustAppend(t *testing.T, l *Ledger, at sim.Time, actor, class, action, detail string) {
	t.Helper()
	if err := l.Append(at, actor, class, action, detail); err != nil {
		t.Fatalf("Append(%v, %s/%s): %v", at, actor, action, err)
	}
}

func TestChainAndEpochAnchoring(t *testing.T) {
	l := New(Config{Epoch: sim.Hour})
	// Three epochs of activity with an idle epoch (2) in between.
	mustAppend(t, l, 10*sim.Minute, "oss3", "software", "oss-crash", "")
	mustAppend(t, l, 20*sim.Minute, "oss3", "software", "oss-recovered", "")
	mustAppend(t, l, sim.Hour+5*sim.Minute, "rtr7", "hardware", "cable-cut", "")
	mustAppend(t, l, 3*sim.Hour+sim.Minute, "atlas1-grp0", "integrity", "scrub-escalation", "2 stripes beyond parity")
	l.Close()

	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	if l.AnchorCount() != 3 {
		t.Fatalf("AnchorCount = %d, want 3 (idle epoch 2 must anchor nothing)", l.AnchorCount())
	}
	exp := l.Export()
	wantEpochs := []int{0, 1, 3}
	for i, a := range exp.Anchors {
		if a.Epoch != wantEpochs[i] {
			t.Errorf("anchor %d epoch = %d, want %d", i, a.Epoch, wantEpochs[i])
		}
	}
	// Entry chain: seqs dense, each Prev the predecessor's Hash.
	prev := strings.Repeat("0", 64)
	for i, e := range exp.Entries {
		if e.Seq != uint64(i) {
			t.Errorf("entry %d seq = %d", i, e.Seq)
		}
		if e.Prev != prev {
			t.Errorf("entry %d prev does not chain", i)
		}
		prev = e.Hash
	}
	// Anchor chain and coverage.
	aprev := strings.Repeat("0", 64)
	cover := uint64(0)
	for j, a := range exp.Anchors {
		if a.Prev != aprev {
			t.Errorf("anchor %d prev does not chain", j)
		}
		if a.FirstSeq != cover {
			t.Errorf("anchor %d first_seq = %d, want %d", j, a.FirstSeq, cover)
		}
		cover += uint64(a.Entries)
		aprev = a.Hash
	}
	if cover != uint64(len(exp.Entries)) {
		t.Errorf("anchors cover %d of %d entries", cover, len(exp.Entries))
	}
	if exp.Head != aprev {
		t.Errorf("head %s != last anchor hash", exp.Head)
	}
	if fs := Audit(exp); len(fs) != 0 {
		t.Fatalf("clean ledger audits dirty: %v", fs)
	}
}

func TestAppendRefusals(t *testing.T) {
	l := New(Config{})
	if err := l.Append(-sim.Second, "a", "c", "k", ""); err == nil {
		t.Error("negative timestamp accepted")
	}
	mustAppend(t, l, sim.Hour, "a", "c", "k", "")
	if err := l.Append(sim.Minute, "a", "c", "k", ""); err == nil {
		t.Error("time regression accepted")
	}
	l.Close()
	l.Close() // idempotent
	if err := l.Append(2*sim.Hour, "a", "c", "k", ""); err == nil {
		t.Error("append after close accepted")
	}
	if l.Len() != 1 || l.AnchorCount() != 1 {
		t.Errorf("refused appends leaked state: %d entries, %d anchors", l.Len(), l.AnchorCount())
	}
}

func TestSealForcesAnAnchor(t *testing.T) {
	l := New(Config{Epoch: sim.Hour})
	l.Seal() // empty: no-op
	if l.AnchorCount() != 0 {
		t.Fatal("empty seal anchored something")
	}
	mustAppend(t, l, sim.Minute, "wave", "serve", "wave-drained", "")
	l.Seal()
	mustAppend(t, l, 2*sim.Minute, "wave", "serve", "wave-drained", "")
	l.Seal()
	l.Close()
	if l.AnchorCount() != 2 {
		t.Fatalf("AnchorCount = %d, want 2 (one per forced seal)", l.AnchorCount())
	}
	if fs := Audit(l.Export()); len(fs) != 0 {
		t.Fatalf("forced-seal ledger audits dirty: %v", fs)
	}
}

// build runs a fixed append script — the double-run determinism probe.
func build(t *testing.T) *Ledger {
	t.Helper()
	l := New(Config{Epoch: sim.Hour})
	for i := 0; i < 20; i++ {
		mustAppend(t, l, sim.Time(i)*17*sim.Minute, "cmp", "hardware", "disk-failure", "slot")
	}
	l.Close()
	return l
}

func TestLedgerRootsDeterministic(t *testing.T) {
	a, b := build(t), build(t)
	ra, rb := a.Roots(), b.Roots()
	if len(ra) != len(rb) {
		t.Fatalf("root counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("root %d differs between identical runs", i)
		}
	}
	if a.Head() != b.Head() {
		t.Fatal("heads differ between identical runs")
	}
	ja, err := json.Marshal(a.Export())
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b.Export())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatal("export JSON differs between identical runs")
	}
}

func TestExportRoundTripAndResume(t *testing.T) {
	l := build(t)
	data, err := json.Marshal(l.Export())
	if err != nil {
		t.Fatal(err)
	}
	var exp Export
	if err := json.Unmarshal(data, &exp); err != nil {
		t.Fatal(err)
	}
	if fs := Audit(&exp); len(fs) != 0 {
		t.Fatalf("round-tripped export audits dirty: %v", fs)
	}
	r, err := Resume(&exp)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	mustAppend(t, r, 30*sim.Hour, "operator", "operator", "annotation", "post-incident note")
	r.Close()
	if fs := Audit(r.Export()); len(fs) != 0 {
		t.Fatalf("resumed+extended ledger audits dirty: %v", fs)
	}
	if r.AnchorCount() != l.AnchorCount()+1 {
		t.Errorf("extension anchored %d batches, want 1", r.AnchorCount()-l.AnchorCount())
	}
	// Against the original trusted roots the extension is visible but
	// nothing diverges.
	fs := AuditAgainst(r.Export(), l.Export().RootRefs())
	if len(fs) != 1 || fs[0].Class != ClassUntrustedTail {
		t.Fatalf("extension audit = %v, want exactly one %s", fs, ClassUntrustedTail)
	}

	// Resume must refuse a tampered export.
	exp.Entries[3].Detail = "rewritten"
	if _, err := Resume(&exp); err == nil {
		t.Fatal("Resume accepted a tampered export")
	}
}
