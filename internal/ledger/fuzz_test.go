package ledger_test

import (
	"encoding/json"
	"math"
	"testing"

	"spiderfs/internal/chaos"
	"spiderfs/internal/ledger"
	"spiderfs/internal/sim"
)

// FuzzLedgerAudit feeds arbitrary bytes through the export decoder to
// Audit, AuditAgainst and Resume, the paths `spidersim ledger
// verify|append` take with a file it is handed: none may panic. It also
// checks two properties every input must keep. Audited against its own
// roots an export gains no finding. An export Resume accepts stays
// clean after one more append and Close.
func FuzzLedgerAudit(f *testing.F) {
	quick, err := json.Marshal(chaos.Run(chaos.QuickConfig(42)).Ops)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(quick)

	// An anchor whose claimed range wraps uint64 once panicked the
	// auditor's batch slice.
	l := ledger.New(ledger.Config{Epoch: sim.Hour})
	for i := 0; i < 4; i++ {
		if err := l.Append(sim.Time(i)*sim.Hour, "oss1", "software", "oss-crash", ""); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	exp := l.Export()
	exp.Anchors[len(exp.Anchors)-1].FirstSeq = math.MaxUint64
	exp.Anchors[len(exp.Anchors)-1].Entries = 2
	overflow, err := json.Marshal(exp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(overflow)

	f.Fuzz(func(t *testing.T, data []byte) {
		var exp ledger.Export
		if json.Unmarshal(data, &exp) != nil {
			return
		}
		fs := ledger.Audit(&exp)
		if self := ledger.AuditAgainst(&exp, exp.RootRefs()); len(self) != len(fs) {
			t.Fatalf("audit against its own roots: %d findings, plain audit %d", len(self), len(fs))
		}
		l, err := ledger.Resume(&exp)
		if err != nil {
			return
		}
		var at sim.Time
		if n := len(exp.Entries); n > 0 {
			at = max(exp.Entries[n-1].At, 0)
		}
		if err := l.Append(at, "fuzz", "operator", "resume-check", ""); err != nil {
			t.Fatalf("append after resume: %v", err)
		}
		l.Close()
		if fs := ledger.Audit(l.Export()); len(fs) > 0 {
			t.Fatalf("resumed ledger audits dirty after one append: %v", fs)
		}
	})
}
