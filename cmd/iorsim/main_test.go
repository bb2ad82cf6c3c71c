package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsOutOfRangeFlags: each value exits 2 with one line on
// stderr before anything is built, instead of a panic from deep inside
// the model, a stonewall deadline that overflows into a run that moves
// nothing, a client table past Titan's node count, or a scale that
// silently means another.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-clients", "0"}, {"-xfer", "0"}, {"-clients", "-1"}, {"-stonewall", "0"},
		{"-stonewall", "1e300"}, {"-stonewall", "3600.001"}, {"-clients", "18689"},
		{"-scale", "0"}, {"-scale", "-1"}, {"-scale", "19"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "iorsim: ") || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one iorsim: line", args, code, &stdout, &stderr)
		}
	}
}

// TestDefaults: the default flags run to completion, and -h prints the
// flags and exits 0.
func TestDefaults(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 || stderr.Len() != 0 || !strings.Contains(stdout.String(), "ior clients=128 xfer=1MiB") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, &stderr, &stdout)
	}
	stdout.Reset()
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "-seed") {
		t.Fatalf("-h: exit %d, stdout %q, stderr %q", code, &stdout, &stderr)
	}
}
