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
