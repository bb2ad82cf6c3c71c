package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// tiny is the reduced size the tests run every workload at: one IOR
// point, 9 waves, a 2-hour campaign pair, 60 sessions.
var tiny = options{seed: 7, work: 0.01}

// definition is BENCHMARK.json as the tests read it.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readDefinition(t *testing.T) definition {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d definition
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// verdict runs execute and parses its last line.
func verdict(t *testing.T, w workload, o options, trace bool) (int, map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := execute(w, o, trace, t.TempDir(), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var v struct {
		Correct   bool
		Attempted int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("%s: last line is not a verdict: %v\n%s", w.name, err, stdout.String())
	}
	if v.Correct != (code == 0) || v.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d, exit %d\n%s", w.name, v.Correct, v.Attempted, code, stderr.String())
	}
	return code, v.Metrics
}

// TestMetricSets checks that every workload prints exactly the metrics
// BENCHMARK.json declares, with the same units, traced and untraced. The
// traced run also fails when tracing changed a simulated result.
func TestMetricSets(t *testing.T) {
	d := readDefinition(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, d.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			code, got := verdict(t, w, tiny, trace)
			if code != 0 {
				t.Errorf("%s (traced %v): exit %d", w.name, trace, code)
			}
			if len(got) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json declares %d", w.name, trace, len(got), len(want))
			}
			for _, m := range want {
				if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s is %+v, want unit %q", w.name, trace, m.Name, g, m.Unit)
				}
			}
		}
	}
}

// TestGate runs every workload twice in one process: the second run
// must reproduce the first run's fingerprint and headline values through
// the gate, and a perturbed recorded fingerprint must fail it.
func TestGate(t *testing.T) {
	for _, w := range workloads {
		r, err := measure(w, tiny, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.out.problems) > 0 {
			t.Errorf("%s: %v", w.name, r.out.problems)
		}
		want := &expectation{Fingerprint: r.out.fingerprint(), Headlines: map[string]float64{}}
		for _, h := range r.out.headlines {
			want.Headlines[h.name] = h.value
		}
		o := tiny
		o.expect = want
		if r, err = measure(w, o, nil, 1); err != nil {
			t.Fatal(err)
		}
		if len(r.out.problems) > 0 {
			t.Errorf("%s: a second run fails the first run's fingerprint: %v", w.name, r.out.problems)
		}
		o.expect = &expectation{Fingerprint: strings.Repeat("0", 16), Headlines: want.Headlines}
		if r, err = measure(w, o, nil, 1); err != nil {
			t.Fatal(err)
		}
		if len(r.out.problems) == 0 {
			t.Errorf("%s: a perturbed fingerprint passes the gate", w.name)
		}
	}
}

// TestSeedFlag checks that --seed takes any integer modulo 2^64 and
// refuses anything else.
func TestSeedFlag(t *testing.T) {
	for in, want := range map[string]uint64{
		"42": 42, "0x10": 16, "-1": math.MaxUint64, "18446744073709551616": 0, "-18446744073709551617": math.MaxUint64,
	} {
		var s seedValue
		if err := s.Set(in); err != nil || uint64(s) != want {
			t.Errorf("--seed %s gives %d, %v; want %d", in, uint64(s), err, want)
		}
	}
	for _, in := range []string{"", "x", "1.5"} {
		var s seedValue
		if err := s.Set(in); err == nil {
			t.Errorf("--seed %q is accepted", in)
		}
	}
}

// TestRecordedFingerprints checks fingerprints.json covers every
// workload at the calibrated length.
func TestRecordedFingerprints(t *testing.T) {
	var rec recorded
	if err := json.Unmarshal(fingerprintsJSON, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seconds != calibratedSeconds {
		t.Errorf("fingerprints recorded at %d seconds, the calibrated length is %d", rec.Seconds, calibratedSeconds)
	}
	for _, w := range workloads {
		if e := rec.Workloads[w.name]; e == nil || len(e.Fingerprint) != 16 {
			t.Errorf("%s: no recorded fingerprint", w.name)
		}
	}
}
