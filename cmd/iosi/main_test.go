package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsOutOfRangeFlags: each value exits 2 with one line on
// stderr before anything is built, where it used to panic, run without
// end, or print an empty or all-zero signature.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-runs", "0"}, {"-runs", "-1"},
		{"-burst", "-1"}, {"-burst", "0"}, {"-bursts", "0"}, {"-bursts", "-3"},
		{"-burst", "65536", "-bursts", "2"},
		{"-period", "0"}, {"-period", "-1"}, {"-period", "NaN"},
		{"-period", "1e9"}, {"-period", "1e300"}, {"-period", "600"},
		{"-noise", "-1"}, {"-noise", "5"}, {"-noise", "NaN"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "iosi: ") || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one iosi: line", args, code, &stdout, &stderr)
		}
	}
}

// TestExportImport: -import reads back the logs -export wrote and
// extracts the same signature, and ignores the simulation flags.
func TestExportImport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "logs.json")
	var sim, stderr bytes.Buffer
	if code := run([]string{"-export", path}, &sim, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("-export: exit %d, stderr %q", code, &stderr)
	}
	var imported bytes.Buffer
	if code := run([]string{"-import", path, "-runs", "0", "-period", "0"}, &imported, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("-import: exit %d, stderr %q", code, &stderr)
	}
	_, want, _ := strings.Cut(sim.String(), "\n")
	if imported.String() != want || !strings.Contains(want, "signature across 4 runs") {
		t.Fatalf("imported:\n%s\nsimulated:\n%s", &imported, want)
	}
}
