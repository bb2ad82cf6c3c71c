package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSplitDeterminismAndIndependence(t *testing.T) {
	a, b := New(7), New(7)
	c1, c2 := a.Split("disks"), b.Split("disks")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("same-label splits diverged")
		}
	}
	d1 := New(7).Split("disks")
	d2 := New(7).Split("network")
	same := 0
	for i := 0; i < 100; i++ {
		if d1.Uint64() == d2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-label splits suspiciously correlated: %d/100 equal", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(2)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %f, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered only %d values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(4)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(2.0)
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exp(2) mean = %f, want ~0.5", mean)
	}
}

func TestParetoProperties(t *testing.T) {
	r := New(5)
	const alpha, xm = 2.5, 1.0
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Pareto(alpha, xm)
		if v < xm {
			t.Fatalf("Pareto below xm: %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	want := alpha * xm / (alpha - 1) // 5/3
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("Pareto mean = %f, want ~%f", mean, want)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(7)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean = %f", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("Normal stddev = %f", math.Sqrt(variance))
	}
}

func TestTruncNormalRange(t *testing.T) {
	r := New(8)
	for i := 0; i < 10000; i++ {
		v := r.TruncNormal(1.0, 0.5, 0.7, 1.1)
		if v < 0.7 || v > 1.1 {
			t.Fatalf("TruncNormal out of range: %v", v)
		}
	}
}

func TestTruncNormalPathologicalFallsBack(t *testing.T) {
	r := New(9)
	// Interval 50 sigma away from the mean: rejection will fail over to
	// uniform; result must still be inside.
	v := r.TruncNormal(0, 1, 50, 51)
	if v < 50 || v > 51 {
		t.Fatalf("fallback out of range: %v", v)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(11)
	for _, lambda := range []float64{0.5, 4, 50, 1000} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / float64(n)
		if math.Abs(mean-lambda)/lambda > 0.05 {
			t.Fatalf("Poisson(%f) mean = %f", lambda, mean)
		}
	}
	if New(1).Poisson(-1) != 0 {
		t.Fatal("Poisson of negative lambda should be 0")
	}
}

// poissonRef is Poisson without the exp(-lambda) memo.
func poissonRef(r *Source, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		v := r.Normal(lambda, math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// TestPoissonMemoMatchesReference interleaves lambdas, so the memo is
// hit, missed and refilled, and checks every draw and the stream state
// against the unmemoised reference bit for bit.
func TestPoissonMemoMatchesReference(t *testing.T) {
	lambdas := []float64{0.5, 1e-4, 3, 0, 700, 42.5, math.SmallestNonzeroFloat64}
	pick := New(3)
	got, want := New(19), New(19)
	for i := 0; i < 20000; i++ {
		lambda := lambdas[pick.Intn(len(lambdas))]
		if g, w := got.Poisson(lambda), poissonRef(want, lambda); g != w {
			t.Fatalf("draw %d: Poisson(%g) = %d, reference %d", i, lambda, g, w)
		}
		if got.s != want.s {
			t.Fatalf("draw %d: stream state diverged after Poisson(%g)", i, lambda)
		}
	}
}

func TestBool(t *testing.T) {
	r := New(14)
	n := 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.6) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.6) > 0.01 {
		t.Fatalf("Bool(0.6) fraction = %f", frac)
	}
}

func TestShuffle(t *testing.T) {
	r := New(15)
	v := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	seen := map[int]bool{}
	for _, x := range v {
		seen[x] = true
	}
	if len(seen) != 10 {
		t.Fatal("shuffle lost elements")
	}
}
