package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsOutOfRangeFlags: each value exits 2 with one line on
// stderr before anything is built, where it used to panic on a negative
// (or overflowed) preload, print a NaN speedup for an empty tree or
// zero-size files, or run "parallel(x0)" as one worker.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-filemb", "-1"}, {"-filemb", "0"}, {"-filemb", "9000000000000"},
		{"-workers", "0"}, {"-workers", "-2"},
		{"-dirs", "0"}, {"-files", "-3"}, {"-dirs", "1048577"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "dtools: ") || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one dtools: line", args, code, &stdout, &stderr)
		}
	}
}

// TestSmallestTree: the smallest tree the flags accept prints finite
// speedups.
func TestSmallestTree(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dirs", "1", "-files", "1", "-filemb", "1", "-workers", "1"}, &stdout, &stderr)
	if code != 0 || stderr.Len() != 0 || !strings.Contains(stdout.String(), "parallel(x1)") || strings.Contains(stdout.String(), "NaN") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, &stderr, &stdout)
	}
}

// TestRejectsTreeBeyondCapacity: a tree larger than the 64 GiB test
// namespace exits 2 with one line instead of preloading past its
// capacity.
func TestRejectsTreeBeyondCapacity(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dirs", "64", "-files", "128", "-filemb", "16"}, &stdout, &stderr)
	if code != 2 || stdout.Len() != 0 || stderr.String() != "dtools: -dirs x -files x -filemb is 128.0 GiB, more than the namespace's 64.0 GiB\n" {
		t.Errorf("exit %d, stdout %q, stderr %q", code, &stdout, &stderr)
	}
}

// TestRejectsOutOfRangeTreeFlags: the tree flags alone (no -workers),
// each out of range, exit 2 with one line on stderr before anything is
// built, where they used to panic on a negative preload or scan an
// empty namespace and exit 0.
func TestRejectsOutOfRangeTreeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-filemb", "-1"}, {"-filemb", "0"}, {"-filemb", "9000000000000"},
		{"-dirs", "0"}, {"-files", "-5"}, {"-dirs", "2", "-files", "524289"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "dtools: ") || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one dtools: line", args, code, &stdout, &stderr)
		}
	}
}

// TestDURow: a 5,000-file tree of 16 MiB files (78.1 GiB) exits 2 with
// one line; at 1 MiB it fits, and the du row scans that tree alone (one
// MDS stat per file), before the copies exist.
func TestDURow(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dirs", "50", "-files", "100", "-filemb", "16"}, &stdout, &stderr)
	if code != 2 || stdout.Len() != 0 || stderr.String() != "dtools: -dirs x -files x -filemb is 78.1 GiB, more than the namespace's 64.0 GiB\n" {
		t.Errorf("-filemb 16: exit %d, stdout %q, stderr %q", code, &stdout, &stderr)
	}
	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-dirs", "50", "-files", "100", "-filemb", "1"}, &stdout, &stderr)
	out := stdout.String()
	if code != 0 || stderr.Len() != 0 || !strings.HasPrefix(out, "namespace: 5000 files, 4.9 GiB\n") ||
		!strings.HasSuffix(out, "\ndu            825.000ms       15.000us  55000.0x  (LustreDU; MDS ops 5000 -> 0)\n") {
		t.Errorf("5,000 files: exit %d, stderr %q, stdout:\n%s", code, &stderr, out)
	}
}
