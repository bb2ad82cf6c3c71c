package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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
func runLedger(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		ledgerUsage(stderr)
		return 2
	}
	verb := args[0]
	fs := flag.NewFlagSet("ledger "+verb, flag.ContinueOnError)
	fs.SetOutput(stderr)
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
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stop, err := startProfile(*cpuprofile, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "spidersim: -cpuprofile:", err)
		return 1
	}
	defer stop()
	if *in == "" {
		fmt.Fprintln(stderr, "ledger: -in FILE required")
		ledgerUsage(stderr)
		return 2
	}
	exp, err := readExport(*in)
	if err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 1
	}

	switch verb {
	case "verify":
		return ledgerVerify(exp, *trust, stdout, stderr)
	case "replay":
		return ledgerReplay(exp, *spansFile, sim.Time(*from), sim.Time(*to), stdout, stderr)
	case "append":
		if *action == "" {
			fmt.Fprintln(stderr, "ledger append: -action required")
			return 2
		}
		dst := *out
		if dst == "" {
			dst = *in
		}
		return ledgerAppend(exp, sim.Time(*at), *actor, *class, *action, *detail, dst, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "ledger: unknown verb %q\n", verb)
		ledgerUsage(stderr)
		return 2
	}
}

func ledgerUsage(stderr io.Writer) {
	fmt.Fprintln(stderr, `usage: spidersim ledger <verify|replay|append> -in FILE [-cpuprofile FILE]
  verify  [-trust FILE]                                  audit; nonzero exit on findings
  replay  [-spans FILE] [-from DUR] [-to DUR]            render an incident window
  append  -at DUR -action KIND [-actor A] [-class C] [-detail D] [-out FILE]`)
}

func ledgerVerify(exp *ledger.Export, trustFile string, stdout, stderr io.Writer) int {
	var findings []ledger.Finding
	if trustFile != "" {
		trusted, err := readTrust(trustFile)
		if err != nil {
			fmt.Fprintln(stderr, "ledger verify:", err)
			return 1
		}
		fmt.Fprintf(stdout, "auditing against %d trusted roots from %s\n", len(trusted), trustFile)
		findings = ledger.AuditAgainst(exp, trusted)
	} else {
		findings = ledger.Audit(exp)
	}
	fmt.Fprintf(stdout, "ledger: %d entries, %d anchored batches, head %.16s..\n",
		len(exp.Entries), len(exp.Anchors), exp.Head)
	if len(findings) == 0 {
		fmt.Fprintln(stdout, "verify: clean — hash chains, anchor coverage, and Merkle roots all hold")
		return 0
	}
	fmt.Fprintf(stdout, "verify: %d findings\n", len(findings))
	for _, f := range findings {
		fmt.Fprintf(stdout, "  %v\n", f)
	}
	return 1
}

func ledgerReplay(exp *ledger.Export, spansFile string, from, to sim.Time, stdout, stderr io.Writer) int {
	var spans []trace.SpanRecord
	if spansFile != "" {
		f, err := os.Open(spansFile)
		if err != nil {
			fmt.Fprintln(stderr, "ledger replay:", err)
			return 1
		}
		spans, err = trace.ReadSpans(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "ledger replay:", err)
			return 1
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
	fmt.Fprintf(stdout, "replay [%v, %v]: %d ledger entries + spans -> %d items\n",
		from, to, len(exp.Entries), len(items))
	fmt.Fprint(stdout, ledger.RenderReplay(items))
	return 0
}

func ledgerAppend(exp *ledger.Export, at sim.Time, actor, class, action, detail, dst string, stdout, stderr io.Writer) int {
	l, err := ledger.Resume(exp)
	if err != nil {
		fmt.Fprintln(stderr, "ledger append:", err)
		return 1
	}
	if err := l.Append(at, actor, class, action, detail); err != nil {
		fmt.Fprintln(stderr, "ledger append:", err)
		return 1
	}
	l.Close()
	if err := writeLedger(dst, l.Export()); err != nil {
		fmt.Fprintln(stderr, "ledger append:", err)
		return 1
	}
	fmt.Fprintf(stdout, "appended %s/%s at %v: now %d entries, %d anchors, head %.16s..; wrote %s\n",
		actor, action, at, l.Len(), l.AnchorCount(), l.Head(), dst)
	return 0
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
