package sweep

import (
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
	e := Entry{Label: "det", Replicas: 24, Body: simBody}
	serial, err := Run(e, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(e, 99, 8)
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
	res, err := Run(Entry{Label: "errs", Replicas: 8, Body: body}, 1, 4)
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
	if _, err := Run(Entry{Label: "x", Body: simBody}, 1, 0); err == nil {
		t.Error("zero replicas should error")
	}
	if _, err := Run(Entry{Label: "x", Replicas: MaxReplicas + 1, Body: simBody}, 1, 0); err == nil {
		t.Error("replicas over MaxReplicas should error")
	}
	if _, err := Run(Entry{Label: "x", Replicas: 1}, 1, 0); err == nil {
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
	res, err := Run(Entry{Label: "agg", Replicas: 5, Body: body}, 3, 3)
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
