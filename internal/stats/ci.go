package stats

import "math"

// tCrit95 holds two-sided 95% Student-t critical values t_{0.975,df}
// for df = 1..30; beyond the table the anchors below interpolate toward
// the normal limit. Replica counts in sweeps are small (tens), so the
// exact small-df values matter: a normal approximation at df=4 would
// understate the half-width by almost 30%.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCrit95Anchors extends the table with the usual large-df anchors.
var tCrit95Anchors = []struct {
	df int
	t  float64
}{{30, 2.042}, {40, 2.021}, {60, 2.000}, {120, 1.980}}

const tCrit95Normal = 1.960 // df -> infinity

// TCritical95 returns the two-sided 95% Student-t critical value for
// the given degrees of freedom, interpolating linearly in 1/df between
// the standard anchors above df=30. It returns NaN for df < 1.
func TCritical95(df int) float64 {
	if df < 1 {
		return math.NaN()
	}
	if df <= len(tCrit95) {
		return tCrit95[df-1]
	}
	for i := 0; i+1 < len(tCrit95Anchors); i++ {
		lo, hi := tCrit95Anchors[i], tCrit95Anchors[i+1]
		if df <= hi.df {
			// Interpolate in 1/df, the variable the t quantile is
			// nearly linear in across this range.
			f := (1/float64(lo.df) - 1/float64(df)) / (1/float64(lo.df) - 1/float64(hi.df))
			return lo.t + f*(hi.t-lo.t)
		}
	}
	last := tCrit95Anchors[len(tCrit95Anchors)-1]
	// Between the last anchor and the normal limit, again in 1/df.
	f := (1/float64(last.df) - 1/float64(df)) / (1 / float64(last.df))
	return last.t + f*(tCrit95Normal-last.t)
}

// CI95Half returns the half-width of the 95% confidence interval for
// the mean accumulated in s: t_{0.975,N-1} * stddev / sqrt(N). It is 0
// for fewer than two observations (no spread information).
func (s *Summary) CI95Half() float64 {
	if s.N < 2 {
		return 0
	}
	return TCritical95(int(s.N)-1) * s.Stddev() / math.Sqrt(float64(s.N))
}

// MeanCI95 returns the sample mean of values and the half-width of its
// 95% confidence interval. The half-width is 0 for fewer than two
// values.
//
//simlint:allow test-only-export oracle the tests check Summary.CI95Half against
func MeanCI95(values []float64) (mean, half float64) {
	var s Summary
	for _, v := range values {
		s.Add(v)
	}
	return s.Mean, s.CI95Half()
}
