package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsOutOfRangeFlags: each value exits 2 with one line on
// stderr before anything is built, instead of a panic from deep inside
// the model.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-rpc", "0"}, {"-rpc", "-1"},
		{"-threads", "0"}, {"-threads", "-2"},
		{"-total", "0"}, {"-total", "7"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "obdsurvey: ") || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one obdsurvey: line", args, code, &stdout, &stderr)
		}
	}
}

// TestDefaults: the default flags run to completion, and -h prints the
// flags and exits 0.
func TestDefaults(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 || stderr.Len() != 0 || !strings.Contains(stdout.String(), "obdfilter-survey: total=256 MiB rpc=1024 KiB threads=8") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, &stderr, &stdout)
	}
	stdout.Reset()
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "-seed") {
		t.Fatalf("-h: exit %d, stdout %q, stderr %q", code, &stdout, &stderr)
	}
}
