// Package stats provides the statistical primitives used by the Spider
// workload characterization, performance QA, and experiment reporting:
// streaming moments, histograms, percentiles, confidence intervals,
// Pareto tail fitting, and performance binning.
package stats

import (
	"math"
	"sort"
)

// Summary accumulates streaming count/mean/variance/min/max using
// Welford's algorithm. The zero value is ready to use.
type Summary struct {
	N        uint64
	Mean     float64
	m2       float64
	Min, Max float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.N++
	if s.N == 1 {
		s.Min, s.Max = x, x
	} else {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	delta := x - s.Mean
	s.Mean += delta / float64(s.N)
	s.m2 += delta * (x - s.Mean)
}

// Variance returns the sample (n-1) variance, or 0 for fewer than two
// observations.
func (s *Summary) Variance() float64 {
	if s.N < 2 {
		return 0
	}
	return s.m2 / float64(s.N-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// CoV returns the coefficient of variation (stddev/mean), or 0 when the
// mean is zero.
func (s *Summary) CoV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Stddev() / math.Abs(s.Mean)
}

// Percentile returns the p-quantile (0 <= p <= 1) of values using linear
// interpolation between order statistics. It sorts a copy; for repeated
// queries over the same data use Quantiles. Returns NaN on empty input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return quantileSorted(v, p)
}

func quantileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ParetoFit holds maximum-likelihood Pareto tail parameters.
type ParetoFit struct {
	Alpha float64 // tail index
	Xm    float64 // scale (minimum)
	N     int     // samples used
}

// FitPareto fits a Pareto distribution by MLE to the samples at or above
// xm. If xm <= 0 the sample minimum is used. Samples below xm are
// discarded. Returns a zero fit when fewer than 2 samples qualify.
func FitPareto(samples []float64, xm float64) ParetoFit {
	if xm <= 0 {
		// Auto-scale: the smallest strictly positive sample. Zero
		// samples (e.g. simultaneous arrivals) are not usable as a
		// Pareto scale and are excluded from the fit below anyway.
		for _, v := range samples {
			if v > 0 && (xm <= 0 || v < xm) {
				xm = v
			}
		}
	}
	if xm <= 0 {
		return ParetoFit{}
	}
	var sum float64
	n := 0
	for _, v := range samples {
		if v >= xm && v > 0 {
			sum += math.Log(v / xm)
			n++
		}
	}
	if n < 2 || sum <= 0 {
		return ParetoFit{Xm: xm, N: n}
	}
	return ParetoFit{Alpha: float64(n) / sum, Xm: xm, N: n}
}
