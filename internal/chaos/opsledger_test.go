package chaos

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"spiderfs/internal/ledger"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
)

// ledgerSeed is the quick-campaign seed the ledger pins were recorded
// at.
const ledgerSeed = 42

// ledgerRoots is the anchored root sequence of the quick campaign at
// ledgerSeed, one per anchor, and ledgerHead its chain head.
var ledgerRoots = []string{
	"1082f5e82ed1263568c363731962a96c47fb944f0636bdc3c30752fff6bb7783",
	"8f89c6671c6c7328c95134d313442d91897c1b85e06de83e40e034930a4ca73b",
	"e61a3127bb177e921572a8b61d8cb86c6daaf45212c7ebdc4fb7b87ecddab05d",
	"fc35f7328dd573bac025b963d3d785407ec758c24222389f1dbfc502124f679a",
	"3ec972334e567ce56a14468057a4ccf719d7a2bea828462f833467910634c114",
	"fd04f40c88fc7d7f31a762e56d4417f6be38d12b68281a40d7a2a4516f5e5ea5",
	"6c8eab0b65548798b69338a7cd41cbb458ff38d7edb4edd741c47b35a7fcae55",
	"62d146669e30305db4c2154fb0ac79fd82d90b2761e572ea130fc002f2d9aced",
	"8d7b444101640d6d093134b2a72da183732a7e05778a2452ce6148509ed48580",
	"02169ec096f1750ae935d7768f8a95ec8140095fa191d879fa4fcbeb4dcc4ec7",
	"dfd65a139973dcd7bc9ee8d0cf68bbf3976c16e44793d0a75ff5e03445eb4a63",
	"7fbd5eb0a4529744ca93e0f5303ebfa0cb4bd987c80b14ef10c6c02e15fbc9af",
	"35774b7d62e9c201ebb8502277da31f20103db7d079d2f781080143a47f8f6e4",
	"6a60e0e29b85890171ecd647b1ce99df5ce32803cf87958c34456a7c58644a82",
}

const ledgerHead = "b6e21a5d6da668871f243ca1fd409cb04accbfecf1b91da23db44969ce043679"

// The operations-ledger determinism contract, pinned: the quick
// campaign at ledgerSeed keeps ledgerContract and reproduces its pinned
// entry count, root sequence and head. Each tamper class applied to
// that export is caught, as the class and at the epoch pinned for it.
func TestCampaignLedgerDeterministic(t *testing.T) {
	r1 := ledgerContract(t, ledgerSeed)
	if r1.LedgerEntries != 42 || r1.LedgerAnchors != 14 || r1.LedgerDrops != 0 {
		t.Fatalf("quick campaign ledger: %d entries, %d anchors, %d refused; want 42, 14, 0",
			r1.LedgerEntries, r1.LedgerAnchors, r1.LedgerDrops)
	}
	if !slices.Equal(r1.LedgerRoots, ledgerRoots) {
		t.Fatalf("roots %v, want %v", r1.LedgerRoots, ledgerRoots)
	}
	if r1.LedgerHead != ledgerHead {
		t.Fatalf("head %s, want %s", r1.LedgerHead, ledgerHead)
	}

	want := []struct {
		name, class string
		epoch       int
	}{
		{"entry-mutation", "entry-mutation", 14},
		{"entry-deletion", "sequence-gap", 14},
		{"chain-truncation", "history-truncation", 12},
		{"batch-reorder", "anchor-break", 3},
		{"forged-suffix", "root-divergence", 12},
	}
	got := runTampers(t, r1.Ops)
	if len(got) != len(want) {
		t.Fatalf("%d tamper cases, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if g := got[i]; g.Name != w.name || g.Class != w.class || g.Epoch != w.epoch {
			t.Errorf("tamper %d: %s caught as %q at epoch %d, want %s as %q at epoch %d",
				i, g.Name, g.Class, g.Epoch, w.name, w.class, w.epoch)
		}
	}
}

// ledgerContract runs the quick campaign at seed twice, and once with
// the span tracer armed, and fails unless the two exports are
// byte-identical and audit clean and the traced run (the tracer is an
// observer) anchors the same roots and head. It returns the first run.
func ledgerContract(t *testing.T, seed uint64) *Report {
	t.Helper()
	r1 := Run(QuickConfig(seed))
	r2 := Run(QuickConfig(seed))
	b1, err1 := json.Marshal(r1.Ops)
	b2, err2 := json.Marshal(r2.Ops)
	if err1 != nil || err2 != nil {
		t.Fatalf("export marshal: %v / %v", err1, err2)
	}
	if string(b1) != string(b2) {
		t.Fatal("ledger exports are not byte-identical across runs")
	}
	if fs := ledger.Audit(r1.Ops); len(fs) != 0 {
		t.Fatalf("campaign ledger audit found %d findings: %v", len(fs), fs)
	}
	cfg := QuickConfig(seed)
	cfg.Tracer = spantrace.New(rng.New(seed^0x7ed9), 4)
	r3 := Run(cfg)
	if r3.LedgerHead != r1.LedgerHead || !slices.Equal(r3.LedgerRoots, r1.LedgerRoots) {
		t.Fatalf("traced head %s and roots diverged from untraced %s", r3.LedgerHead, r1.LedgerHead)
	}
	return r1
}

// TestLedgerSuiteDeterministic holds a quick campaign at a seed other
// than the pins' one to ledgerContract.
func TestLedgerSuiteDeterministic(t *testing.T) {
	ledgerContract(t, 7)
}

// TestLedgerSuiteProperties checks, at a seed other than the pins' one,
// what the pins fix as literals: a nonempty ledger with no refused
// append, one root per anchor, the report's head matching its export's,
// and every tamper class caught with a class and an offending epoch.
func TestLedgerSuiteProperties(t *testing.T) {
	r := Run(QuickConfig(7))
	if r.LedgerEntries == 0 || r.LedgerAnchors == 0 || r.LedgerDrops != 0 {
		t.Fatalf("quick campaign ledger: %d entries, %d anchors, %d refused",
			r.LedgerEntries, r.LedgerAnchors, r.LedgerDrops)
	}
	if len(r.LedgerRoots) != r.LedgerAnchors {
		t.Fatalf("%d roots for %d anchors", len(r.LedgerRoots), r.LedgerAnchors)
	}
	if r.Ops.Head != r.LedgerHead {
		t.Fatalf("export head %s vs report head %s", r.Ops.Head, r.LedgerHead)
	}
	got := runTampers(t, r.Ops)
	if len(got) != 5 {
		t.Fatalf("%d tamper cases, want 5: %+v", len(got), got)
	}
	for _, tc := range got {
		if tc.Class == "" || tc.Epoch < 0 {
			t.Errorf("tamper %s went undetected: %+v", tc.Name, tc)
		}
	}
}

// tamper is one adversarial case's verdict: the first finding's class
// and offending epoch, or "" and -1 when the auditor found nothing.
type tamper struct {
	Name, Class string
	Epoch       int
}

// runTampers applies one instance of each tamper class of the threat
// model to copies of the campaign export and records what AuditAgainst
// (with the honest roots as trusted memory) finds. The forged-suffix
// case goes through the public Resume API: the attacker's rewritten
// tail is internally consistent, every hash recomputed, and only the
// trusted root sequence exposes it.
func runTampers(t *testing.T, exp *ledger.Export) []tamper {
	trusted := exp.RootRefs()
	verdict := func(name string, e *ledger.Export) tamper {
		out := tamper{Name: name, Epoch: -1}
		if fs := ledger.AuditAgainst(e, trusted); len(fs) > 0 {
			out.Class, out.Epoch = fs[0].Class, fs[0].Epoch
		}
		return out
	}
	var out []tamper
	mid := len(exp.Entries) / 2

	e := cloneExport(exp)
	e.Entries[mid].Action += "x" // single payload mutation
	out = append(out, verdict("entry-mutation", e))

	e = cloneExport(exp)
	e.Entries = append(e.Entries[:mid:mid], e.Entries[mid+1:]...)
	out = append(out, verdict("entry-deletion", e))

	// Truncate at an anchor boundary and regress the head: internally
	// consistent, caught only against trusted roots.
	cut := len(exp.Anchors) / 2
	e = cloneExport(exp)
	a := e.Anchors[cut-1]
	e.Entries = e.Entries[:a.FirstSeq+uint64(a.Entries)]
	e.Anchors = e.Anchors[:cut]
	e.Head = a.Hash
	out = append(out, verdict("chain-truncation", e))

	e = cloneExport(exp)
	e.Anchors[0], e.Anchors[1] = e.Anchors[1], e.Anchors[0]
	out = append(out, verdict("batch-reorder", e))

	// Forged suffix: rewrite history after the cut with an all-quiet
	// narrative, every hash internally consistent via Resume.
	e = cloneExport(exp)
	e.Entries = e.Entries[:a.FirstSeq+uint64(a.Entries)]
	e.Anchors = e.Anchors[:cut]
	e.Head = a.Hash
	forged, err := ledger.Resume(e)
	if err != nil {
		t.Fatalf("forged-suffix: resume: %v", err)
	}
	last := e.Entries[len(e.Entries)-1].At
	for i := 0; i < 3; i++ {
		if err := forged.Append(last+sim.Time(i+1)*sim.Hour, "fleet", "operator", "all-quiet", ""); err != nil {
			t.Fatalf("forged-suffix: append: %v", err)
		}
	}
	forged.Close()
	return append(out, verdict("forged-suffix", forged.Export()))
}

func cloneExport(exp *ledger.Export) *ledger.Export {
	c := *exp
	c.Entries = append([]ledger.Entry(nil), exp.Entries...)
	c.Anchors = append([]ledger.Anchor(nil), exp.Anchors...)
	return &c
}

// The campaign export must audit clean, chain every monitor event and
// operator action, and carry the kinds the fault menu delivers.
func TestCampaignLedgerAuditsCleanAndComplete(t *testing.T) {
	r := featured(t)
	if fs := ledger.Audit(r.Ops); len(fs) != 0 {
		t.Fatalf("campaign ledger audit found %d findings: %v", len(fs), fs)
	}
	if r.Ops.Head != r.LedgerHead {
		t.Fatalf("export head %s vs report head %s", r.Ops.Head, r.LedgerHead)
	}
	if len(r.Ops.Entries) != r.LedgerEntries {
		t.Fatalf("export carries %d entries, report says %d", len(r.Ops.Entries), r.LedgerEntries)
	}
	// Every coalesced incident's underlying events funnel through the
	// ledger, plus the operator actions — so the ledger is at least as
	// busy as the incident stream.
	if r.LedgerEntries < r.Incidents {
		t.Fatalf("%d ledger entries for %d incidents", r.LedgerEntries, r.Incidents)
	}
	seen := map[string]bool{}
	actors := map[string]bool{}
	for _, e := range r.Ops.Entries {
		seen[e.Action] = true
		actors[e.Class] = true
	}
	for _, want := range []string{"oss-crash", "mds-outage", "mds-recovered", "router-repaired"} {
		if !seen[want] {
			keys := make([]string, 0, len(seen))
			for k := range seen {
				keys = append(keys, k)
			}
			t.Fatalf("ledger carries no %q action; saw %s", want, strings.Join(keys, ", "))
		}
	}
	if !actors["operator"] || !actors["hardware"] {
		t.Fatalf("ledger missing operator or hardware entry classes: %v", actors)
	}
}
