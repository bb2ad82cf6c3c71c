package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"spiderfs/internal/ledger"
	"spiderfs/internal/sim"
	"spiderfs/internal/trace"
)

// runLedger is the forensics CLI over exported operations ledgers:
//
//	spidersim ledger verify -in FILE [-trust FILE]   audit a history
//	spidersim ledger replay -in FILE [-spans FILE] [-from D] [-to D]
//	spidersim ledger append -in FILE -at D -actor A -action K [-out FILE]
//
// verify audits the export's hash chains, anchor coverage, and Merkle
// roots; with -trust (a previously audited export, or a bare JSON
// array of {epoch,root} refs) it additionally detects truncated or
// forged-but-internally-consistent histories. replay renders the
// incident window, joining ledger entries with spans exported by
// `spidersim spans -out`. append extends an audited history — a
// tampered one is refused — and writes the new export.
func runLedger(args []string) {
	if len(args) == 0 {
		ledgerUsage()
		exit(2)
	}
	verb := args[0]
	fs := flag.NewFlagSet("ledger "+verb, flag.ExitOnError)
	in := fs.String("in", "", "ledger export JSON (required; spidersim chaos -ledger FILE writes one)")
	trust := fs.String("trust", "", "verify: trusted export or JSON root-ref array to audit against")
	spansFile := fs.String("spans", "", "replay: spans JSON (spidersim spans -out FILE) to join")
	from := fs.Duration("from", 0, "replay: window start in simulated time, e.g. 2h15m")
	to := fs.Duration("to", 0, "replay: window end (0 = end of history)")
	at := fs.Duration("at", 0, "append: simulated timestamp of the new entry")
	actor := fs.String("actor", "operator-cli", "append: acting component")
	class := fs.String("class", "operator", "append: entry class")
	action := fs.String("action", "", "append: action kind (required)")
	detail := fs.String("detail", "", "append: free-form detail")
	out := fs.String("out", "", "append: write the extended export here (default: overwrite -in)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	_ = fs.Parse(args[1:])
	startProfile(*cpuprofile)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "ledger: -in FILE required")
		ledgerUsage()
		exit(2)
	}
	exp, err := readExport(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		exit(1)
	}

	switch verb {
	case "verify":
		ledgerVerify(exp, *trust)
	case "replay":
		ledgerReplay(exp, *spansFile, sim.Time(*from), sim.Time(*to))
	case "append":
		if *action == "" {
			fmt.Fprintln(os.Stderr, "ledger append: -action required")
			exit(2)
		}
		dst := *out
		if dst == "" {
			dst = *in
		}
		ledgerAppend(exp, sim.Time(*at), *actor, *class, *action, *detail, dst)
	default:
		fmt.Fprintf(os.Stderr, "ledger: unknown verb %q\n", verb)
		ledgerUsage()
		exit(2)
	}
}

func ledgerUsage() {
	fmt.Fprintln(os.Stderr, `usage: spidersim ledger <verify|replay|append> -in FILE [-cpuprofile FILE]
  verify  [-trust FILE]                                  audit; nonzero exit on findings
  replay  [-spans FILE] [-from DUR] [-to DUR]            render an incident window
  append  -at DUR -action KIND [-actor A] [-class C] [-detail D] [-out FILE]`)
}

func ledgerVerify(exp *ledger.Export, trustFile string) {
	var findings []ledger.Finding
	if trustFile != "" {
		trusted, err := readTrust(trustFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ledger verify:", err)
			exit(1)
		}
		fmt.Printf("auditing against %d trusted roots from %s\n", len(trusted), trustFile)
		findings = ledger.AuditAgainst(exp, trusted)
	} else {
		findings = ledger.Audit(exp)
	}
	fmt.Printf("ledger: %d entries, %d anchored batches, head %.16s..\n",
		len(exp.Entries), len(exp.Anchors), exp.Head)
	if len(findings) == 0 {
		fmt.Println("verify: clean — hash chains, anchor coverage, and Merkle roots all hold")
		return
	}
	fmt.Printf("verify: %d findings\n", len(findings))
	for _, f := range findings {
		fmt.Printf("  %v\n", f)
	}
	exit(1)
}

func ledgerReplay(exp *ledger.Export, spansFile string, from, to sim.Time) {
	var spans []trace.SpanRecord
	if spansFile != "" {
		f, err := os.Open(spansFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ledger replay:", err)
			exit(1)
		}
		spans, err = trace.ReadSpans(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ledger replay:", err)
			exit(1)
		}
	}
	if to <= 0 {
		if n := len(exp.Entries); n > 0 {
			to = exp.Entries[n-1].At
		}
		for _, s := range spans {
			if sim.Time(s.EndNS) > to {
				to = sim.Time(s.EndNS)
			}
		}
	}
	items := ledger.Replay(exp, spans, from, to)
	fmt.Printf("replay [%v, %v]: %d ledger entries + spans -> %d items\n",
		from, to, len(exp.Entries), len(items))
	fmt.Print(ledger.RenderReplay(items))
}

func ledgerAppend(exp *ledger.Export, at sim.Time, actor, class, action, detail, dst string) {
	l, err := ledger.Resume(exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger append:", err)
		exit(1)
	}
	if err := l.Append(at, actor, class, action, detail); err != nil {
		fmt.Fprintln(os.Stderr, "ledger append:", err)
		exit(1)
	}
	l.Close()
	if err := writeLedger(dst, l.Export()); err != nil {
		fmt.Fprintln(os.Stderr, "ledger append:", err)
		exit(1)
	}
	fmt.Printf("appended %s/%s at %v: now %d entries, %d anchors, head %.16s..; wrote %s\n",
		actor, action, at, l.Len(), l.AnchorCount(), l.Head(), dst)
}

func readExport(path string) (*ledger.Export, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var exp ledger.Export
	if err := json.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if exp.Schema != ledger.Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, exp.Schema, ledger.Schema)
	}
	return &exp, nil
}

// readTrust loads a trusted root sequence: either a full ledger export
// (its anchors become the refs) or a bare JSON array of
// {"epoch":N,"root":"..."} objects.
func readTrust(path string) ([]ledger.RootRef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var exp ledger.Export
	if err := json.Unmarshal(data, &exp); err == nil && exp.Schema == ledger.Schema {
		return exp.RootRefs(), nil
	}
	var refs []ledger.RootRef
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("%s: neither a ledger export nor a root-ref array: %w", path, err)
	}
	return refs, nil
}

func writeLedger(path string, exp *ledger.Export) error {
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
