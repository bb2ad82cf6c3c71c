package main

import (
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
