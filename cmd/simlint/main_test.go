package main

import (
	"bytes"
	"strings"
	"testing"
)

// The fixture modules: clean's one panic carries a reasoned allow that
// its .simlint-baseline.json pins; dirty's carries none.
const (
	cleanMod = "testdata/clean"
	dirtyMod = "testdata/dirty"
)

func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", code, &stderr)
	}
	for _, name := range []string{"no-wallclock", "no-library-panic", "test-only-export"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list does not name %s:\n%s", name, &stdout)
		}
	}
}

// TestRejectsBadFlags: each case exits 2 with one simlint: line before
// loading anything. -debt judges every directive against every check,
// so -checks does not combine with it; -update and -baseline mean
// nothing without it.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-checks", "no-such-check"},
		{"-debt", "-checks", "test-only-export", "-C", cleanMod},
		{"-update", "-C", cleanMod},
		{"-baseline", "other.json", "-C", cleanMod},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "simlint: ") || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one simlint: line", args, code, &stdout, &stderr)
		}
	}
}

func TestCleanAndDirtyModules(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", cleanMod}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || stderr.Len() != 0 {
		t.Fatalf("clean: exit %d, stdout %q, stderr %q", code, &stdout, &stderr)
	}
	code := run([]string{"-C", dirtyMod}, &stdout, &stderr)
	if code != 1 || strings.Count(stdout.String(), "\n") != 1 || !strings.Contains(stdout.String(), "lib.go:8:3: no-library-panic:") {
		t.Fatalf("dirty: exit %d, stdout %q; want exit 1 and one no-library-panic line", code, &stdout)
	}
	if !strings.Contains(stderr.String(), "simlint: 1 diagnostic(s)") {
		t.Errorf("dirty: stderr %q does not count the diagnostic", &stderr)
	}
}

func TestDebtAgainstBaseline(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-debt", "-C", cleanMod}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", code, &stderr)
	}
	if want := "suppression debt: 1 //simlint:allow site(s)\n  no-library-panic       1\n"; stdout.String() != want {
		t.Fatalf("stdout %q, want %q", &stdout, want)
	}
}
