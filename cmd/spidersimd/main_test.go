package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsOutOfRangeFlags: each value exits 2 with one line on
// stderr before the service is built, where it used to run 2 workers,
// a 64-deep queue or a clamped pool and cache while the banner printed
// the value given.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "0"}, {"-workers", "-1"}, {"-queue", "0"}, {"-queue", "-4"},
		{"-pool", "-1"}, {"-cache", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "spidersimd: ") || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one spidersimd: line", args, code, &stdout, &stderr)
		}
	}
}

// TestBadAddr: an address the daemon cannot listen on exits 1 with one
// line on stderr, after the banner.
func TestBadAddr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-addr", "127.0.0.1:-1", "-pool", "0", "-cache", "0"}, &stdout, &stderr)
	if code != 1 || !strings.HasPrefix(stdout.String(), "spidersimd listening on 127.0.0.1:-1 (workers 2, queue 64, pool 0, cache 0)") ||
		!strings.HasPrefix(stderr.String(), "spidersimd: ") || strings.Count(stderr.String(), "\n") != 1 {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 and one spidersimd: line", code, &stdout, &stderr)
	}
}
