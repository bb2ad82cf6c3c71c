// Package rng provides a deterministic, splittable pseudo-random source
// and the probability distributions used across the Spider models.
//
// Every experiment in this repository derives all of its randomness from
// a single seed through named Split calls, so runs are reproducible and
// sub-models remain statistically independent of each other even when
// the model structure changes.
package rng

import (
	"hash/fnv"
	"math"
)

// Source is an xoshiro256** generator. It is not safe for concurrent use;
// split per-goroutine sources with Split.
type Source struct {
	s [4]uint64

	// Poisson's exp(-lambda) for the last lambda it drew with. Callers
	// such as a drive's media-fault stream repeat one lambda per
	// command, so the exponential is computed once per distinct value.
	poisLambda, poisExp float64
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a source seeded from seed via SplitMix64 state expansion.
func New(seed uint64) *Source {
	var src Source
	x := seed
	for i := range src.s {
		src.s[i] = splitmix64(&x)
	}
	// xoshiro must not start in the all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// Split derives an independent source labeled by name. Splitting the same
// parent with the same label always yields the same child stream.
func (r *Source) Split(label string) *Source {
	h := fnv.New64a()
	h.Write([]byte(label))
	return New(r.Uint64() ^ h.Sum64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	return int(r.Uint64() % uint64(n)) // negligible modulo bias for model use
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	return int64(r.Uint64() % uint64(n))
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	return -math.Log(1-r.Float64()) / rate
}

// Pareto returns a Pareto(alpha, xm) value: P(X > x) = (xm/x)^alpha for
// x >= xm. The paper's workload characterization found inter-arrival and
// idle-time distributions with Pareto (long) tails. alpha and xm must be
// positive.
func (r *Source) Pareto(alpha, xm float64) float64 {
	if alpha <= 0 || xm <= 0 {
		panic("rng: Pareto with non-positive parameter") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box–Muller).
func (r *Source) Normal(mean, stddev float64) float64 {
	u1 := 1 - r.Float64() // avoid log(0)
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// TruncNormal returns a Normal(mean, stddev) value rejected into
// [lo, hi]. It panics if the interval is empty.
func (r *Source) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if hi <= lo {
		panic("rng: TruncNormal with empty interval") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	for i := 0; i < 1000; i++ {
		v := r.Normal(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	// Pathological parameters: fall back to uniform on the interval.
	return lo + (hi-lo)*r.Float64()
}

// Poisson returns a Poisson(lambda) count using Knuth's method for small
// lambda and a normal approximation above 500. exp(-lambda) is
// remembered for the last lambda seen; the draws are the same either
// way.
func (r *Source) Poisson(lambda float64) int {
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
	if lambda != r.poisLambda {
		r.poisLambda, r.poisExp = lambda, math.Exp(-lambda)
	}
	l := r.poisExp
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
