package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when run starts the test binary as
// a child, so the tests see main's real exit code and output.
func TestMain(m *testing.M) {
	if os.Getenv("FAIRLIO_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes fairlio with args in a child process and returns its exit
// code, stdout and stderr.
func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FAIRLIO_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	case err != nil:
		t.Fatal(err)
	}
	return 0, stdout.String(), stderr.String()
}

// TestRejectsOutOfRangeFlags: each value exits 2 with one line on
// stderr before anything is built, instead of a panic from deep inside
// the model.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-size", "0"}, {"-size", "-1"}, {"-target", "disk", "-size", "0"},
		{"-size", "99999999999999"}, {"-target", "disk", "-size", "3000000000000"},
		{"-target", "disk", "-random", "-size", "2000000000000"},
		{"-depth", "0"}, {"-depth", "-3"},
		{"-write", "1.7"}, {"-write", "-0.1"}, {"-write", "NaN"},
		{"-seconds", "0"}, {"-seconds", "-1"},
		{"-seconds", "3601"}, {"-seconds", "1e300"},
	} {
		code, stdout, stderr := run(t, args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "fairlio: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one fairlio: line", args, code, stdout, stderr)
		}
	}
}

// TestDefaults: the default flags run to completion.
func TestDefaults(t *testing.T) {
	code, stdout, stderr := run(t)
	if code != 0 || stderr != "" || !strings.Contains(stdout, "fair-lio group sequential size=1048576") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
}
