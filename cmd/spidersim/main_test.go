package main

import (
	"slices"
	"testing"

	"spiderfs/internal/experiment"
)

// TestStudiesDoNotShadowCommands guards main's dispatch order: a study
// is looked up before the command switch, so a study named after a
// command would silently take that command over.
func TestStudiesDoNotShadowCommands(t *testing.T) {
	for _, c := range commands {
		if _, ok := experiment.Lookup(c); ok {
			t.Errorf("study %q shadows the spidersim %s command", c, c)
		}
	}
}

// TestSelectSweeps pins what each -exp value runs: a short name selects
// its label or every label it prefixes up to a "-", and "all" the whole
// catalog.
func TestSelectSweeps(t *testing.T) {
	for exp, want := range map[string][]string{
		"e3":        {"e3-slowdisk"},
		"e13":       {"e13-purge"},
		"e18":       {"e18-chaos"},
		"e19":       {"e19-scrub-off", "e19-scrub-default", "e19-scrub-slow"},
		"e19-scrub": {"e19-scrub-off", "e19-scrub-default", "e19-scrub-slow"},
		"e13-purge": {"e13-purge"},
		"all":       {"e3-slowdisk", "e13-purge", "e18-chaos", "e19-scrub-off", "e19-scrub-default", "e19-scrub-slow"},
		"e1":        nil,
	} {
		var got []string
		for _, e := range selectSweeps(exp) {
			got = append(got, e.Label)
		}
		if !slices.Equal(got, want) {
			t.Errorf("-exp %s selects %v, want %v", exp, got, want)
		}
	}
	if got := sweepChoices(); got != "e3|e13|e18|e19|all" {
		t.Errorf("-exp choices %q", got)
	}
}
