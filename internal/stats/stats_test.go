package stats

import (
	"math"
	"testing"

	"spiderfs/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasic(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N != 8 || !almost(s.Mean, 5, 1e-12) {
		t.Fatalf("N=%d mean=%f", s.N, s.Mean)
	}
	if !almost(s.Variance(), 32.0/7.0, 1e-9) {
		t.Fatalf("variance=%f", s.Variance())
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min=%f max=%f", s.Min, s.Max)
	}
	if !almost(s.CoV(), s.Stddev()/5, 1e-12) {
		t.Fatalf("cov=%f", s.CoV())
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(v, 0); got != 1 {
		t.Fatalf("p0 = %f", got)
	}
	if got := Percentile(v, 1); got != 10 {
		t.Fatalf("p100 = %f", got)
	}
	if got := Percentile(v, 0.5); !almost(got, 5.5, 1e-12) {
		t.Fatalf("p50 = %f", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("empty percentile should be NaN")
	}
}

func TestFitParetoRecoversAlpha(t *testing.T) {
	r := rng.New(99)
	const alpha, xm = 1.6, 0.001
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = r.Pareto(alpha, xm)
	}
	fit := FitPareto(samples, xm)
	if !almost(fit.Alpha, alpha, 0.05) {
		t.Fatalf("fit alpha = %f, want ~%f", fit.Alpha, alpha)
	}
	if fit.N != len(samples) {
		t.Fatalf("fit used %d samples", fit.N)
	}
}

func TestFitParetoAutoXm(t *testing.T) {
	fit := FitPareto([]float64{1, 2, 4, 8}, 0)
	if fit.Xm != 1 {
		t.Fatalf("auto xm = %f, want sample min 1", fit.Xm)
	}
	if fit.Alpha <= 0 {
		t.Fatalf("alpha = %f", fit.Alpha)
	}
}

func TestQuantileBins(t *testing.T) {
	values := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	bins := QuantileBins(values, 5)
	if len(bins.Members) != 5 {
		t.Fatalf("bins = %d", len(bins.Members))
	}
	// Slowest bin should contain the indices of the two smallest values.
	slow := bins.Members[0]
	if len(slow) != 2 || values[slow[0]] != 10 || values[slow[1]] != 20 {
		t.Fatalf("slowest bin = %v", slow)
	}
	fast := bins.Members[4]
	if values[fast[1]] != 100 {
		t.Fatalf("fastest bin = %v", fast)
	}
	total := 0
	for _, m := range bins.Members {
		total += len(m)
	}
	if total != len(values) {
		t.Fatalf("bins cover %d of %d", total, len(values))
	}
}
