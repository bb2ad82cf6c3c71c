package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsOutOfRangeFlags: a cell time that is not positive once
// converted to simulated time, or above an hour, exits 2 with one line
// on stderr before anything runs, instead of a table of zero-throughput
// cells or a sweep that never finishes.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-cell", "0"}, {"-cell", "-1"}, {"-cell", "1e-12"}, {"-cell", "NaN"},
		{"-cell", "3601"}, {"-cell", "1e300"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "benchsuite: ") || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one benchsuite: line", args, code, &stdout, &stderr)
		}
	}
}
