package sim

import (
	"fmt"
	"math"
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/stats"
)

// erlangCWait returns the closed-form mean queueing delay of an M/M/c
// station with c servers, arrival rate lambda and service rate mu
// (Erlang C): P(wait) / (c*mu - lambda).
func erlangCWait(c int, lambda, mu float64) float64 {
	a := lambda / mu
	rho := a / float64(c)
	term, sum := 1.0, 0.0 // a^k/k!, and its sum over k < c
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	tail := term / (1 - rho)
	return tail / (sum + tail) / (float64(c)*mu - lambda)
}

// TestServerMatchesErlangC checks the FIFO station every OSS, MDS and
// controller model queues on against queueing theory: Poisson arrivals
// and exponential service on a 4-slot Server at 80% load. Across the
// seeds, the closed-form mean wait must lie inside the 95% confidence
// interval of the measured MeanWait.
func TestServerMatchesErlangC(t *testing.T) {
	const (
		slots = 4
		rho   = 0.8
		jobs  = 150_000
		seeds = 10
	)
	mu := 1 / float64(Millisecond) // mean service 1 ms, per ns
	lambda := rho * slots * mu
	want := erlangCWait(slots, lambda, mu)

	var waits stats.Summary
	for seed := uint64(1); seed <= seeds; seed++ {
		e := NewEngine()
		s := NewServer(e, "mmc", slots)
		src := rng.New(seed)
		arrivals := src.Split("arrivals")
		service := src.Split("service")
		left := jobs
		var arrive func()
		arrive = func() {
			s.Submit(Time(service.Exp(mu)), nil)
			if left--; left > 0 {
				e.After(Time(arrivals.Exp(lambda)), arrive)
			}
		}
		e.After(Time(arrivals.Exp(lambda)), arrive)
		e.Run()
		if s.Completed != jobs {
			t.Fatalf("seed %d: completed %d of %d jobs", seed, s.Completed, jobs)
		}
		waits.Add(float64(s.MeanWait()))
	}
	half := waits.CI95Half()
	t.Logf("Erlang C mean wait %.0f ns; measured %.0f ± %.0f ns over %d seeds",
		want, waits.Mean, half, seeds)
	if math.Abs(waits.Mean-want) > half {
		t.Fatalf("closed-form mean wait %s outside the measured 95%% CI %.0f ± %.0f ns",
			fmt.Sprint(Time(want)), waits.Mean, half)
	}
}
