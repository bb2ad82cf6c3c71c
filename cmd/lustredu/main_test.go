package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsOutOfRangeFlags: each value exits 2 with one line on
// stderr before anything is built, where it used to panic on a negative
// preload or scan an empty namespace and exit 0.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-filemb", "-1"}, {"-filemb", "0"}, {"-filemb", "9000000000000"},
		{"-dirs", "0"}, {"-files", "-5"}, {"-dirs", "2", "-files", "524289"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "lustredu: ") || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one lustredu: line", args, code, &stdout, &stderr)
		}
	}
}
