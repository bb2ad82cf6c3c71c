package sweep

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"spiderfs/internal/sim"
)

// simBody is a miniature but representative replica: it builds a
// private engine, schedules work driven by the replica stream, and
// records aggregate metrics.
func simBody(r *Rep) error {
	eng := sim.NewEngine()
	var sum float64
	var fired int
	for i := 0; i < 50; i++ {
		d := sim.FromSeconds(r.Src.Exp(2.0))
		eng.After(d, func() {
			fired++
			sum += r.Src.Float64()
		})
	}
	eng.Run()
	r.Record("fired", float64(fired))
	r.Record("sum", sum)
	r.Record("end_s", eng.Now().Seconds())
	return nil
}

// TestSweepDeterministicAcrossWorkers is the double-run contract: the
// merged report must be byte-identical between a serial run and a
// maximally parallel run of the same seed set.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	base := Config{Label: "det", Seed: 99, Replicas: 24}

	serialCfg := base
	serialCfg.Workers = 1
	serial, err := Run(serialCfg, simBody)
	if err != nil {
		t.Fatal(err)
	}
	parallelCfg := base
	parallelCfg.Workers = 8
	parallel, err := Run(parallelCfg, simBody)
	if err != nil {
		t.Fatal(err)
	}

	if sr, pr := serial.Report(), parallel.Report(); sr != pr {
		t.Fatalf("serial and parallel merged reports differ:\n--- serial\n%s\n--- parallel\n%s", sr, pr)
	}
	if serial.Fingerprint() != parallel.Fingerprint() {
		t.Fatalf("fingerprints differ: %016x vs %016x", serial.Fingerprint(), parallel.Fingerprint())
	}
	// Sanity: the sweep actually produced differing replicas (streams
	// are independent, not copies).
	if serial.Replicas[0].Seed == serial.Replicas[1].Seed {
		t.Fatal("replica seeds identical; stream splitting is broken")
	}
	if serial.Replicas[0].Metrics[1].Value == serial.Replicas[1].Metrics[1].Value {
		t.Fatal("replica metrics identical; replicas are not independent")
	}
}

func TestSweepErrorsAndPanicsAreConfined(t *testing.T) {
	body := func(r *Rep) error {
		switch r.Index {
		case 2:
			return fmt.Errorf("replica %d refused", r.Index)
		case 5:
			panic("replica 5 exploded")
		}
		r.Record("ok", 1)
		return nil
	}
	res, err := Run(Config{Label: "errs", Seed: 1, Replicas: 8, Workers: 4}, body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 2 {
		t.Fatalf("Errors = %d, want 2", res.Errors)
	}
	if res.Replicas[2].Err != "replica 2 refused" {
		t.Errorf("replica 2 err = %q", res.Replicas[2].Err)
	}
	if !strings.Contains(res.Replicas[5].Err, "replica 5 exploded") {
		t.Errorf("replica 5 err = %q", res.Replicas[5].Err)
	}
	// Failed replicas contribute no samples to the aggregate.
	agg := res.Aggregate()
	if len(agg) != 1 || agg[0].Name != "ok" || agg[0].N != 6 {
		t.Fatalf("aggregate = %+v, want ok with n=6", agg)
	}
	// The failure report is part of the deterministic output.
	if !strings.Contains(res.Report(), "replica 5 failed") {
		t.Error("report omits the failed replica")
	}
}

func TestSweepConfigValidation(t *testing.T) {
	if _, err := Run(Config{Label: "x"}, simBody); err == nil {
		t.Error("zero replicas should error")
	}
	if _, err := Run(Config{Label: "x", Replicas: 1}, nil); err == nil {
		t.Error("nil body should error")
	}
}

func TestAggregateStatsAndOrder(t *testing.T) {
	body := func(r *Rep) error {
		// Record in an order that differs from alphabetical so the
		// first-seen contract is observable.
		r.Record("zeta", float64(r.Index))
		r.Record("alpha", 10)
		return nil
	}
	res, err := Run(Config{Label: "agg", Seed: 3, Replicas: 5, Workers: 3}, body)
	if err != nil {
		t.Fatal(err)
	}
	agg := res.Aggregate()
	if agg[0].Name != "zeta" || agg[1].Name != "alpha" {
		t.Fatalf("aggregate order = [%s %s], want first-seen [zeta alpha]", agg[0].Name, agg[1].Name)
	}
	z := agg[0]
	if z.N != 5 || z.Mean != 2 || z.Min != 0 || z.Max != 4 || z.P50 != 2 {
		t.Errorf("zeta stats = %+v", z)
	}
	if z.CI95 <= 0 {
		t.Errorf("zeta CI95 = %v, want > 0", z.CI95)
	}
	if a := agg[1]; a.Stddev != 0 || a.CI95 != 0 || a.Mean != 10 {
		t.Errorf("alpha stats = %+v, want constant", a)
	}
}

func TestRunSuiteDoubleRunAndClock(t *testing.T) {
	s, err := RunSuite([]Entry{
		{Label: "a", Replicas: 6, Seed: 11, Body: simBody},
		{Label: "b", Replicas: 4, Seed: 12, Body: simBody},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sweeps) != 2 {
		t.Fatalf("%d records, want 2", len(s.Sweeps))
	}
	for _, r := range s.Sweeps {
		if !r.Deterministic {
			t.Errorf("%s: double-run not deterministic", r.Label)
		}
		if len(r.Fingerprint) != 16 {
			t.Errorf("%s: fingerprint %q", r.Label, r.Fingerprint)
		}
		if len(r.Metrics) == 0 {
			t.Errorf("%s: no merged metrics", r.Label)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Render(), "deterministic=true") {
		t.Error("render omits determinism evidence")
	}
}

// TestSuiteCheck is the sabotage table for the sweep invariants: each
// broken record must fail Check on its own, with no committed copy to
// compare against.
func TestSuiteCheck(t *testing.T) {
	good := Record{Label: "e18-chaos", Replicas: 32, Deterministic: true, Fingerprint: "64bbdc892ff233d8"}
	for _, c := range []struct {
		name   string
		mutate func(*Record)
		want   string
	}{
		{"clean", func(*Record) {}, ""},
		{"diverged", func(r *Record) { r.Deterministic = false }, "diverged"},
		{"failed replicas", func(r *Record) { r.Errors = 3 }, "3 replicas failed"},
	} {
		r := good
		c.mutate(&r)
		err := Suite{Schema: Schema, Sweeps: []Record{good, r}}.Check()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check() = %v, want %q", c.name, err, c.want)
		}
	}
}
