// Command simlint runs the repository's determinism and hygiene
// analyzer suite (internal/lint) over the module and prints one
// diagnostic per violated invariant. It exits 1 when diagnostics were
// reported, 2 on load failure, so verify.sh and CI gate on it.
//
// Usage:
//
//	simlint [-C dir] [-json] [-checks a,b,c] [-list]
//	simlint -debt [-C dir] [-json] [-baseline file] [-update]
//
// Diagnostics print as file:line:col: check: message. With -json they
// print as a JSON array of {check,file,line,col,message} objects for
// CI annotators and other tooling.
//
// -debt switches to the suppression-debt inventory: every
// //simlint:allow directive is located, its reason captured, and its
// usefulness verified against an unfiltered run. The report is gated
// against the committed baseline (default .simlint-baseline.json under
// the module root): growth, a reasonless site, or a stale site fails
// the gate with exit 1. -update rewrites the baseline from the fresh
// report — the conscious act of signing off on a debt change.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"spiderfs/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("C", ".", "module root directory to analyze")
	asJSON := fs.Bool("json", false, "emit diagnostics (or the -debt report) as JSON")
	sel := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	debt := fs.Bool("debt", false, "report suppression debt (//simlint:allow inventory) and gate it against the baseline")
	baseline := fs.String("baseline", ".simlint-baseline.json", "debt baseline file, relative to the module root")
	update := fs.Bool("update", false, "with -debt: rewrite the baseline from the fresh report")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	checks := lint.Checks()
	if *list {
		for _, c := range checks {
			fmt.Fprintf(stdout, "%-22s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	if *sel != "" {
		checks = checks[:0]
		for _, name := range strings.Split(*sel, ",") {
			c := lint.LookupCheck(strings.TrimSpace(name))
			if c == nil {
				fmt.Fprintf(stderr, "simlint: unknown check %q (try -list)\n", name)
				return 2
			}
			checks = append(checks, c)
		}
	}

	mod, err := lint.LoadModule(*root)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 2
	}

	if *debt {
		basePath := *baseline
		if !filepath.IsAbs(basePath) {
			basePath = filepath.Join(*root, basePath)
		}
		return runDebt(mod, checks, basePath, *update, *asJSON, stdout, stderr)
	}

	diags := mod.Run(checks)

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		if !*asJSON {
			fmt.Fprintf(stderr, "simlint: %d diagnostic(s) in %d package(s)\n", len(diags), len(mod.Pkgs))
		}
		return 1
	}
	return 0
}

// runDebt implements the -debt mode: inventory, optional baseline
// rewrite, and the growth/reason/staleness gate.
func runDebt(mod *lint.Module, checks []*lint.Check, baselinePath string, update, asJSON bool, stdout, stderr io.Writer) int {
	report := mod.Debt(checks)

	if update {
		data, err := json.MarshalIndent(report.Baseline(), "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 2
		}
		if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "simlint: baseline %s updated: %d site(s)\n", baselinePath, report.Total)
	}

	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 2
		}
	} else {
		fmt.Fprintf(stdout, "suppression debt: %d //simlint:allow site(s)\n", report.Total)
		for _, c := range report.PerCheck {
			fmt.Fprintf(stdout, "  %-22s %d\n", c.Check, c.Sites)
		}
	}

	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: no readable baseline at %s (run -debt -update to create it): %v\n", baselinePath, err)
		return 1
	}
	var base lint.Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(stderr, "simlint: parsing baseline %s: %v\n", baselinePath, err)
		return 2
	}
	fails := lint.GateDebt(base, report)
	for _, f := range fails {
		fmt.Fprintf(stderr, "simlint: debt gate: %s\n", f)
	}
	for _, note := range lint.Tighten(base, report) {
		fmt.Fprintf(stderr, "simlint: note: %s\n", note)
	}
	if len(fails) > 0 {
		return 1
	}
	return 0
}
