package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"spiderfs/internal/ledger"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
)

// LedgerBatch is one point of the anchoring batch-size sweep: a fixed
// synthetic entry stream (one entry per simulated second, the density
// of a busy campaign's monitor bursts) appended under one MaxBatch
// setting.
type LedgerBatch struct {
	MaxBatch int    `json:"max_batch"`
	Entries  int    `json:"entries"`
	Anchors  int    `json:"anchors"`
	Head     string `json:"head"`
}

// LedgerTamper is one adversarial case applied to the campaign export:
// Detected records whether the auditor flagged it, Class the first
// finding's class, and Epoch the offending epoch it identified.
type LedgerTamper struct {
	Name     string `json:"name"`
	Detected bool   `json:"detected"`
	Class    string `json:"class"`
	Epoch    int    `json:"epoch"`
}

// LedgerSchema identifies the BENCH_ledger.json shape.
const LedgerSchema = "spiderfs-ledger-bench/1"

// LedgerSuite is the BENCH_ledger.json artifact: the quick chaos
// campaign's anchored root sequence (double-run and traced-vs-untraced
// identical), the auditor's adversarial scorecard, and the batch-size
// sweep.
type LedgerSuite struct {
	Schema string `json:"schema"`
	Seed   uint64 `json:"seed"`

	// Quick-campaign ledger identity.
	CampaignEntries int      `json:"campaign_entries"`
	CampaignAnchors int      `json:"campaign_anchors"`
	CampaignDrops   int      `json:"campaign_drops"`
	CampaignRoots   []string `json:"campaign_roots"`
	CampaignHead    string   `json:"campaign_head"`
	// Deterministic: two runs produced byte-identical exports.
	// TracedIdentical: attaching the span tracer left every root
	// untouched. AuditClean: the export audits with zero findings.
	Deterministic   bool `json:"deterministic"`
	TracedIdentical bool `json:"traced_identical"`
	AuditClean      bool `json:"audit_clean"`

	// Adversarial coverage: every tamper class must be detected.
	TamperTotal     int            `json:"tamper_total"`
	TampersDetected int            `json:"tampers_detected"`
	Tampers         []LedgerTamper `json:"tampers"`

	Batches []LedgerBatch `json:"batches"`
}

// batchSweepEntries is the synthetic stream length for the batch-size
// sweep; at one entry per simulated second it spans a bit over two
// epoch hours, so every MaxBatch point also crosses an epoch boundary.
const batchSweepEntries = 8192

// RunLedgerSuite builds the BENCH_ledger.json artifact.
func RunLedgerSuite(seed uint64) (LedgerSuite, error) {
	s := LedgerSuite{Schema: LedgerSchema, Seed: seed}

	// Campaign identity: double run, then a traced run.
	r1 := Run(QuickConfig(seed))
	r2 := Run(QuickConfig(seed))
	b1, err := json.Marshal(r1.Ops)
	if err != nil {
		return s, fmt.Errorf("ledger suite: marshal export: %w", err)
	}
	b2, err := json.Marshal(r2.Ops)
	if err != nil {
		return s, fmt.Errorf("ledger suite: marshal export: %w", err)
	}
	s.CampaignEntries = r1.LedgerEntries
	s.CampaignAnchors = r1.LedgerAnchors
	s.CampaignDrops = r1.LedgerDrops
	s.CampaignRoots = r1.LedgerRoots
	s.CampaignHead = r1.LedgerHead
	s.Deterministic = bytes.Equal(b1, b2)
	s.AuditClean = len(ledger.Audit(r1.Ops)) == 0

	traced := QuickConfig(seed)
	traced.Tracer = spantrace.New(rng.New(seed^0x7ed9), 4)
	r3 := Run(traced)
	s.TracedIdentical = r3.LedgerHead == r1.LedgerHead &&
		len(r3.LedgerRoots) == len(r1.LedgerRoots)
	if s.TracedIdentical {
		for i := range r1.LedgerRoots {
			if r3.LedgerRoots[i] != r1.LedgerRoots[i] {
				s.TracedIdentical = false
				break
			}
		}
	}

	s.Tampers = runTampers(r1.Ops)
	s.TamperTotal = len(s.Tampers)
	for _, t := range s.Tampers {
		if t.Detected {
			s.TampersDetected++
		}
	}

	for _, maxBatch := range []int{64, 256, 1024, 4096} {
		l := ledger.New(ledger.Config{Epoch: sim.Hour, MaxBatch: maxBatch})
		for i := 0; i < batchSweepEntries; i++ {
			if err := l.Append(sim.Time(i)*sim.Second,
				fmt.Sprintf("oss%03d", i%97), "hardware", "synthetic-event", ""); err != nil {
				return s, fmt.Errorf("ledger suite: batch %d: %w", maxBatch, err)
			}
		}
		l.Close()
		s.Batches = append(s.Batches, LedgerBatch{
			MaxBatch: maxBatch, Entries: l.Len(), Anchors: l.AnchorCount(), Head: l.Head(),
		})
	}
	return s, nil
}

// Check reports every broken invariant: the campaign export must be
// deterministic, unchanged by tracing and audit-clean, and every
// tamper class must be detected.
func (s LedgerSuite) Check() error {
	var errs []error
	if !s.Deterministic {
		errs = append(errs, errors.New("double-run campaign ledger exports are not byte-identical"))
	}
	if !s.TracedIdentical {
		errs = append(errs, errors.New("attaching the span tracer changed the anchored root sequence"))
	}
	if !s.AuditClean {
		errs = append(errs, errors.New("the untampered campaign export no longer audits clean"))
	}
	if s.TampersDetected != s.TamperTotal {
		errs = append(errs, fmt.Errorf("tampers detected %d of %d: the auditor lost coverage",
			s.TampersDetected, s.TamperTotal))
	}
	for _, t := range s.Tampers {
		if !t.Detected {
			errs = append(errs, fmt.Errorf("tamper class %s went undetected", t.Name))
		}
	}
	return errors.Join(errs...)
}

// runTampers applies one instance of each tamper class the issue's
// threat model names to copies of the campaign export and records
// whether AuditAgainst (with the honest roots as trusted memory)
// detects it. The forged-suffix case goes through the public Resume
// API: the attacker's rewritten tail is internally consistent — every
// hash recomputed — and only the trusted root sequence exposes it.
func runTampers(exp *ledger.Export) []LedgerTamper {
	trusted := exp.RootRefs()
	verdict := func(name string, t *ledger.Export) LedgerTamper {
		fs := ledger.AuditAgainst(t, trusted)
		out := LedgerTamper{Name: name, Detected: len(fs) > 0, Epoch: -1}
		if len(fs) > 0 {
			out.Class = fs[0].Class
			out.Epoch = fs[0].Epoch
		}
		return out
	}
	var out []LedgerTamper
	mid := len(exp.Entries) / 2

	t := cloneExport(exp)
	t.Entries[mid].Action += "x" // single payload mutation
	out = append(out, verdict("entry-mutation", t))

	t = cloneExport(exp)
	t.Entries = append(t.Entries[:mid:mid], t.Entries[mid+1:]...)
	out = append(out, verdict("entry-deletion", t))

	// Truncate at an anchor boundary and regress the head — internally
	// consistent, caught only against trusted roots.
	cut := len(exp.Anchors) / 2
	t = cloneExport(exp)
	a := t.Anchors[cut-1]
	t.Entries = t.Entries[:a.FirstSeq+uint64(a.Entries)]
	t.Anchors = t.Anchors[:cut]
	t.Head = a.Hash
	out = append(out, verdict("chain-truncation", t))

	t = cloneExport(exp)
	t.Anchors[0], t.Anchors[1] = t.Anchors[1], t.Anchors[0]
	out = append(out, verdict("batch-reorder", t))

	// Forged suffix: rewrite history after the cut with an all-quiet
	// narrative, every hash internally consistent via Resume.
	t = cloneExport(exp)
	t.Entries = t.Entries[:a.FirstSeq+uint64(a.Entries)]
	t.Anchors = t.Anchors[:cut]
	t.Head = a.Hash
	forged, err := ledger.Resume(t)
	if err != nil {
		out = append(out, LedgerTamper{Name: "forged-suffix", Detected: false, Epoch: -1,
			Class: "resume-failed: " + err.Error()})
		return out
	}
	last := t.Entries[len(t.Entries)-1].At
	for i := 0; i < 3; i++ {
		_ = forged.Append(last+sim.Time(i+1)*sim.Hour, "fleet", "operator", "all-quiet", "")
	}
	forged.Close()
	out = append(out, verdict("forged-suffix", forged.Export()))
	return out
}

func cloneExport(exp *ledger.Export) *ledger.Export {
	c := *exp
	c.Entries = append([]ledger.Entry(nil), exp.Entries...)
	c.Anchors = append([]ledger.Anchor(nil), exp.Anchors...)
	return &c
}

// Render formats the suite for stdout.
func (s LedgerSuite) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ledger suite: quick campaign seed %d\n", s.Seed)
	fmt.Fprintf(&b, "campaign ledger: %d entries, %d anchors (%d refused), head %.16s..\n",
		s.CampaignEntries, s.CampaignAnchors, s.CampaignDrops, s.CampaignHead)
	fmt.Fprintf(&b, "deterministic=%v traced-identical=%v audit-clean=%v\n",
		s.Deterministic, s.TracedIdentical, s.AuditClean)
	fmt.Fprintf(&b, "tamper detection: %d/%d classes caught\n", s.TampersDetected, s.TamperTotal)
	for _, t := range s.Tampers {
		fmt.Fprintf(&b, "  %-18s detected=%v as %s (epoch %d)\n", t.Name, t.Detected, t.Class, t.Epoch)
	}
	fmt.Fprintf(&b, "batch-size sweep (%d entries at 1/s simulated):\n", batchSweepEntries)
	for _, p := range s.Batches {
		fmt.Fprintf(&b, "  max_batch %-5d -> %4d anchors, head %.16s..\n", p.MaxBatch, p.Anchors, p.Head)
	}
	return b.String()
}
