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

// TestRejectsTreeBeyondCapacity: a tree larger than the 64 GiB test
// namespace exits 2 with one line, where -filemb 16 at the other
// defaults used to preload 78.1 GiB into it; the default tree fits.
func TestRejectsTreeBeyondCapacity(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-filemb", "16"}, &stdout, &stderr)
	if code != 2 || stdout.Len() != 0 || stderr.String() != "lustredu: -dirs x -files x -filemb is 78.1 GiB, more than the namespace's 64.0 GiB\n" {
		t.Errorf("-filemb 16: exit %d, stdout %q, stderr %q", code, &stdout, &stderr)
	}
	stdout.Reset()
	stderr.Reset()
	code = run(nil, &stdout, &stderr)
	if code != 0 || stderr.Len() != 0 || !strings.HasPrefix(stdout.String(), "namespace: 5000 files, 39.1 GiB used\n") {
		t.Errorf("defaults: exit %d, stderr %q, stdout:\n%s", code, &stderr, &stdout)
	}
}
