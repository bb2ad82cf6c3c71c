package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"spiderfs/internal/experiment"
	"spiderfs/internal/serve"
)

// TestMain runs the command itself when runChild starts the test binary
// as a child.
func TestMain(m *testing.M) {
	if os.Getenv("SPIDERSIM_RUN_MAIN") == "1" {
		main()
	}
	os.Exit(m.Run())
}

// runChild executes spidersim with args in a child process and returns
// its exit code, stdout and stderr. The child is killed after a minute,
// so a flag that starts a centuries-long campaign fails the test
// instead of hanging it.
func runChild(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SPIDERSIM_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("%v: still running after a minute", args)
	}
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	case err != nil:
		t.Fatal(err)
	}
	return 0, stdout.String(), stderr.String()
}

// TestChaosDaysBound: a campaign window outside [0, chaos.MaxDays]
// exits 2 with one line on stderr before anything is built, where it
// used to run for centuries of simulated time (or overflow the window)
// or, when negative, be ignored; 0 (the default window) and 1 run.
func TestChaosDaysBound(t *testing.T) {
	for _, days := range []string{"-1", "32", "106751", "300000"} {
		code, stdout, stderr := runChild(t, "chaos", "-days", days)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "spidersim: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("-days %s: exit %d, %d bytes of stdout, stderr %q; want exit 2 and one spidersim: line", days, code, len(stdout), stderr)
		}
	}
	for _, days := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"chaos", "-days", days}, &stdout, &stderr)
		out := stdout.String()
		if code != 0 || stderr.Len() != 0 || !strings.Contains(out, "center-wide chaos campaign") || !strings.Contains(out, "events pending at once") || !strings.Contains(out, "rates changed") || !strings.Contains(out, "rebuilds") || !strings.Contains(out, "stripes checked") {
			t.Errorf("-days %s: exit %d, stderr %q, stdout:\n%s", days, code, &stderr, &stdout)
		}
	}
}

// TestSweepAndSpansFlagBounds: a sweep -replicas outside [0,
// sweep.MaxReplicas], a negative sweep -workers and a spans -every
// below 1 exit 2 with one spidersim: line before anything is built.
// An unbounded -replicas used to size the sweep's replica table (a
// huge value panics in makeslice or allocates without bound), the
// negative values were silently ignored, and -every 0 ran the whole
// scenario to print zero spans and empty tables. The sweep cases run
// in a child, killed after a minute, since a build that ignores a
// bound starts the sweep.
func TestSweepAndSpansFlagBounds(t *testing.T) {
	wantRefused := func(args []string, code int, stdout, stderr string) {
		t.Helper()
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "spidersim: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: exit %d, %d bytes of stdout, stderr %q; want exit 2 and one spidersim: line", args, code, len(stdout), stderr)
		}
	}
	for _, args := range [][]string{
		{"sweep", "-exp", "e13", "-replicas", "257"},
		{"sweep", "-exp", "e13", "-replicas", "-5"},
		{"sweep", "-exp", "e13", "-workers", "-3"},
	} {
		code, stdout, stderr := runChild(t, args...)
		wantRefused(args, code, stdout, stderr)
	}
	var stdout, stderr bytes.Buffer
	for _, every := range []string{"-1", "0"} {
		args := []string{"spans", "-every", every}
		stdout.Reset()
		stderr.Reset()
		code := run(args, &stdout, &stderr)
		wantRefused(args, code, stdout.String(), stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"sweep", "-exp", "e13", "-replicas", "1", "-workers", "1"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 || !strings.Contains(stdout.String(), "(1 replicas in ") {
		t.Errorf("sweep -replicas 1 -workers 1: exit %d, stderr %q, stdout:\n%s", code, &stderr, &stdout)
	}
}

// TestCPUProfile: -cpuprofile writes a runtime/pprof CPU profile (a
// gzipped protocol buffer) of a study run, and still flushes it when
// the command exits 2.
func TestCPUProfile(t *testing.T) {
	checkProfile := func(path string) {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s is not a gzipped profile: %v", path, err)
		}
		data, err := io.ReadAll(zr)
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: %d profile bytes, error %v", path, len(data), err)
		}
	}
	dir := t.TempDir()
	prof := filepath.Join(dir, "fig3.prof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"fig3", "-cpuprofile", prof}, &stdout, &stderr); code != 0 || stderr.Len() != 0 || !strings.Contains(stdout.String(), "--- ") {
		t.Fatalf("fig3 -cpuprofile: exit %d, stderr %q, stdout:\n%s", code, &stderr, &stdout)
	}
	checkProfile(prof)
	prof = filepath.Join(dir, "exit2.prof")
	if code := run([]string{"chaos", "-days", "-1", "-cpuprofile", prof}, &stdout, &stderr); code != 2 {
		t.Fatalf("chaos -days -1 -cpuprofile: exit %d, want 2", code)
	}
	checkProfile(prof)
}

// TestStudyPrintsRunBytes holds the CLI half of the same-bytes
// contract EXPERIMENTS.md states: `spidersim <study> -seed S` prints
// exactly "--- Title ---\n" and the Body of the study's Run(S), the
// block BenchmarkPaper prints, at the study's own seed and another.
func TestStudyPrintsRunBytes(t *testing.T) {
	for _, name := range []string{"fig2", "checkpoint"} {
		s, ok := experiment.Lookup(name)
		if !ok {
			t.Fatalf("no study %q", name)
		}
		for _, seed := range []uint64{s.Seed, 7} {
			r := s.Run(seed)
			want := "--- " + r.Title + " ---\n" + r.Body
			var stdout, stderr bytes.Buffer
			if code := run([]string{name, "-seed", strconv.FormatUint(seed, 10)}, &stdout, &stderr); code != 0 || stderr.Len() != 0 || stdout.String() != want {
				t.Errorf("%s -seed %d: exit %d, stderr %q, stdout:\n%s\nwant:\n%s", name, seed, code, &stderr, &stdout, want)
			}
		}
	}
}

// TestScrubPrintsPinnedTable pins `spidersim scrub -seed 42` byte for
// byte: the E19 table's scrub-off and default-interval columns, the
// "repaired by scrub" and "scrub passes" rows included.
func TestScrubPrintsPinnedTable(t *testing.T) {
	const want = `E19: background scrub vs latent-corruption exposure (same storm + disk failure, same seed)
                                  scrub off  every 30.000s
reads served                            240            240
undetected corrupt reads                  6              0
repaired on read                         33             47
repaired by scrub                         0             47
UREs detected                             0              7
checksum mismatches                      35             40
stripes lost (beyond parity)              1              0
latent hits during rebuild               35              0
rebuild exposure window             16.839s        16.632s
scrub passes                              0            464
mean read latency (ms)                26.64          29.66
scrub read-latency overhead: 11.3%
(paper Sec. V: latent sector errors surface during rebuilds; periodic scrub closes the double-failure window)
`
	var stdout, stderr bytes.Buffer
	if code := run([]string{"scrub", "-seed", "42"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 || stdout.String() != want {
		t.Errorf("scrub -seed 42: exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, &stderr, &stdout, want)
	}
}

// TestLedgerVerbs drives the ledger verbs in-process on a campaign's
// export: verify passes a clean history and fails a forged entry with
// exit 1, append extends a clean history, and a missing -in or an
// unknown verb exits 2.
func TestLedgerVerbs(t *testing.T) {
	spidersim := func(want int, args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != want {
			t.Fatalf("%v: exit %d, want %d; stderr %q", args, code, want, &stderr)
		}
		return stdout.String()
	}
	dir := t.TempDir()
	clean, forged, appended := filepath.Join(dir, "clean.json"), filepath.Join(dir, "forged.json"), filepath.Join(dir, "appended.json")
	spidersim(0, "chaos", "-ledger", clean)
	if out := spidersim(0, "ledger", "verify", "-in", clean); !strings.Contains(out, "verify: clean") {
		t.Fatalf("verify of the campaign's export:\n%s", out)
	}
	spidersim(0, "ledger", "append", "-in", clean, "-at", "25h", "-action", "drill", "-out", appended)
	spidersim(0, "ledger", "verify", "-in", appended)
	exp, err := readExport(clean)
	if err != nil {
		t.Fatal(err)
	}
	exp.Entries[0].Actor = "forged"
	if err := writeLedger(forged, exp); err != nil {
		t.Fatal(err)
	}
	spidersim(1, "ledger", "verify", "-in", forged)
	spidersim(2, "ledger", "verify")
	spidersim(2, "ledger", "rewind", "-in", clean)
}

// TestSessionLedger: `session -ledger FILE` prints the report bytes
// spidersimd's /report serves and writes the ledger bytes its /ledger
// serves, for a workload and a chaos spec. A sweep session keeps no
// ledger, so asking for one exits 1 with one session: line and prints
// no report.
func TestSessionLedger(t *testing.T) {
	svc := serve.New(serve.Config{Workers: 1, QueueDepth: 4, Sweeps: experiment.Sweeps()})
	defer svc.Close()
	h := svc.Handler()
	get := func(method, path, body string) []byte {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		if w.Code != http.StatusOK && w.Code != http.StatusAccepted {
			t.Fatalf("%s %s: status %d: %s", method, path, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	dir := t.TempDir()
	for _, spec := range []string{
		`{"kind":"workload","seed":7,"waves":2,"flows":16,"bytes":1e6}`,
		`{"kind":"chaos","seed":7}`,
	} {
		out := filepath.Join(dir, "ledger.json")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"session", "-spec", spec, "-ledger", out}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
			t.Fatalf("%s: exit %d, stderr %q", spec, code, &stderr)
		}
		written, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}

		var snap serve.Snapshot
		if err := json.Unmarshal(get("POST", "/v1/sessions", spec), &snap); err != nil {
			t.Fatal(err)
		}
		path := "/v1/sessions/" + snap.ID
		get("GET", path+"/events", "") // returns after the terminal event
		if served := get("GET", path+"/report", ""); !bytes.Equal(stdout.Bytes(), served) {
			t.Errorf("%s: printed report\n%s\nserved\n%s", spec, &stdout, served)
		}
		if served := get("GET", path+"/ledger", ""); !bytes.Equal(written, served) {
			t.Errorf("%s: wrote %d ledger bytes, /ledger serves %d", spec, len(written), len(served))
		}
	}

	out := filepath.Join(dir, "sweep.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"session", "-spec", `{"kind":"sweep","seed":7,"sweep":"e13-purge","replicas":1}`, "-ledger", out}, &stdout, &stderr)
	if code != 1 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "session: ") || strings.Count(stderr.String(), "\n") != 1 {
		t.Errorf("sweep -ledger: exit %d, %d bytes of stdout, stderr %q; want exit 1 and one session: line", code, stdout.Len(), &stderr)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("sweep -ledger left a file: %v", err)
	}
}

// TestStudiesDoNotShadowCommands guards main's dispatch order: a study
// is looked up before the command switch, so a study named after a
// command would silently take that command over.
func TestStudiesDoNotShadowCommands(t *testing.T) {
	for _, c := range commands {
		if _, ok := experiment.Lookup(c); ok {
			t.Errorf("study %q shadows the spidersim %s command", c, c)
		}
	}
}

// TestSelectSweeps pins what each -exp value runs: a short name selects
// its label or every label it prefixes up to a "-", and "all" the whole
// catalog.
func TestSelectSweeps(t *testing.T) {
	for exp, want := range map[string][]string{
		"e3":        {"e3-slowdisk"},
		"e13":       {"e13-purge"},
		"e18":       {"e18-chaos"},
		"e19":       {"e19-scrub-off", "e19-scrub-default", "e19-scrub-slow"},
		"e19-scrub": {"e19-scrub-off", "e19-scrub-default", "e19-scrub-slow"},
		"e13-purge": {"e13-purge"},
		"all":       {"e3-slowdisk", "e13-purge", "e18-chaos", "e19-scrub-off", "e19-scrub-default", "e19-scrub-slow"},
		"e1":        nil,
	} {
		var got []string
		for _, e := range experiment.SelectSweeps(exp) {
			got = append(got, e.Label)
		}
		if !slices.Equal(got, want) {
			t.Errorf("-exp %s selects %v, want %v", exp, got, want)
		}
	}
	if got := experiment.SweepChoices(); got != "e3|e13|e18|e19|all" {
		t.Errorf("-exp choices %q", got)
	}
}
