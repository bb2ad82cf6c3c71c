package stats

import (
	"math"
	"testing"
	"testing/quick"

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

func TestLinearHistogram(t *testing.T) {
	h := NewLinearHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)
	h.Add(10)
	for i := 0; i < 10; i++ {
		if h.Count(i) != 1 {
			t.Fatalf("bucket %d count = %d", i, h.Count(i))
		}
	}
	if h.Underflow() != 1 || h.Overflow() != 1 {
		t.Fatalf("under=%d over=%d", h.Underflow(), h.Overflow())
	}
	if h.Total() != 12 {
		t.Fatalf("total=%d", h.Total())
	}
}

func TestLogHistogramBucketsGrow(t *testing.T) {
	h := NewLogHistogram(1, 1<<20, 20)
	prevWidth := 0.0
	for i := 0; i < h.Buckets(); i++ {
		lo, hi := h.BucketBounds(i)
		if hi-lo <= prevWidth {
			t.Fatalf("log buckets not growing at %d", i)
		}
		prevWidth = hi - lo
	}
	h.Add(4096)
	found := false
	for i := 0; i < h.Buckets(); i++ {
		lo, hi := h.BucketBounds(i)
		if 4096 >= lo && 4096 < hi && h.Count(i) == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("4096 not placed in correct bucket")
	}
}

func TestHistogramFractionBelow(t *testing.T) {
	h := NewLinearHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) + 0.5)
	}
	if f := h.FractionBelow(50); !almost(f, 0.5, 0.02) {
		t.Fatalf("FractionBelow(50) = %f", f)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewLinearHistogram(0, 10, 5)
	b := NewLinearHistogram(0, 10, 5)
	a.Add(1)
	b.Add(1)
	b.Add(9)
	a.Merge(b)
	if a.Total() != 3 {
		t.Fatalf("merged total = %d", a.Total())
	}
	if a.Count(0) != 2 {
		t.Fatalf("bucket0 = %d", a.Count(0))
	}
}

func TestHistogramMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLinearHistogram(0, 10, 5).Merge(NewLinearHistogram(0, 10, 6))
}

// Property: histogram total equals adds, and every in-range value lands
// in the bucket whose bounds contain it.
func TestHistogramPlacementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		h := NewLogHistogram(1, 1e6, 30)
		for i := 0; i < 500; i++ {
			h.Add(r.Pareto(1.1, 1))
		}
		var sum uint64
		for i := 0; i < h.Buckets(); i++ {
			sum += h.Count(i)
		}
		return sum+h.Underflow()+h.Overflow() == h.Total() && h.Total() == 500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
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

func TestHistogramRender(t *testing.T) {
	h := NewLinearHistogram(0, 10, 2)
	h.Add(1)
	h.Add(6)
	h.Add(-1)
	out := h.Render(20)
	if out == "" || len(out) < 10 {
		t.Fatalf("render too short: %q", out)
	}
}
