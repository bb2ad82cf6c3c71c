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

// TestServerWaitMatchesPerJobOracle checks WaitTime, which the server
// integrates from its queue length, against waits measured job by job
// from outside it: a job's wait is its completion time less its arrival
// and its service time. Seeded arrivals at about 85% load come one at a
// time, in same-instant bursts of up to 2c+8 jobs, and after idle gaps
// that drain the server. At drain WaitTime is the sum of the waits and
// MeanWait that sum over the job count. At instants T read mid-run, the
// integral so far is Σ(min(start, T) − arrive) over the jobs that had
// arrived, which counts what the still-queued jobs have waited.
func TestServerWaitMatchesPerJobOracle(t *testing.T) {
	const (
		jobs    = 5000
		step    = 7*Millisecond + 300*Microsecond // between mid-run reads
		burstP  = 0.1
		idleP   = 0.02
		idleGap = 50 * Millisecond
	)
	type job struct{ arrive, service, end Time }
	type reading struct {
		at             Time
		arrived        int // jobs submitted by at
		queued         int
		wait, meanWait Time
	}
	mu := 1 / float64(Millisecond) // mean service 1 ms, per ns
	for _, slots := range []int{1, 8} {
		for seed := uint64(1); seed <= 3; seed++ {
			e := NewEngine()
			s := NewServer(e, "oracle", slots)
			src := rng.New(seed)
			gaps, service := src.Split("gaps"), src.Split("service")
			maxBurst := 2*slots + 8
			meanBatch := 1 + burstP*float64(maxBurst-1)/2
			lambda := 0.85 * float64(slots) * mu / meanBatch

			all := make([]*job, 0, jobs)
			var arrive func()
			arrive = func() {
				n := 1
				if gaps.Bool(burstP) {
					n += gaps.Intn(maxBurst)
				}
				for ; n > 0 && len(all) < jobs; n-- {
					j := &job{arrive: e.Now(), service: Time(service.Exp(mu))}
					all = append(all, j)
					s.Submit(j.service, func() { j.end = e.Now() })
				}
				if len(all) == jobs {
					return
				}
				gap := Time(gaps.Exp(lambda))
				if gaps.Bool(idleP) {
					gap += idleGap
				}
				e.After(gap, arrive)
			}
			e.After(0, arrive)

			var reads []reading
			for at := step; e.Pending() > 0; at += step {
				e.RunUntil(at)
				mean := s.MeanWait() // brings WaitTime up to now
				reads = append(reads, reading{at, len(all), s.QueueLen(), s.WaitTime, mean})
			}

			var sum Time
			for _, j := range all {
				sum += j.end - j.arrive - j.service
			}
			if s.Completed != jobs || s.WaitTime != sum || s.MeanWait() != sum/jobs {
				t.Fatalf("c=%d seed %d: drained after %d jobs with WaitTime %d, MeanWait %d; the per-job waits sum to %d over %d jobs, mean %d",
					slots, seed, s.Completed, s.WaitTime, s.MeanWait(), sum, jobs, sum/jobs)
			}

			queuedReads := 0
			for _, r := range reads {
				var want Time
				for _, j := range all[:r.arrived] {
					want += min(j.end-j.service, r.at) - j.arrive
				}
				if r.wait != want || r.arrived > 0 && r.meanWait != want/Time(r.arrived) {
					t.Fatalf("c=%d seed %d at %v (%d arrived, %d queued): WaitTime %d, MeanWait %d; per-job oracle %d, mean %d",
						slots, seed, r.at, r.arrived, r.queued, r.wait, r.meanWait, want, want/Time(max(r.arrived, 1)))
				}
				if r.queued > 0 {
					queuedReads++
				}
			}
			// The mid-run case has teeth only if some reads found jobs
			// still queued, whose partial waits a per-job sum taken at
			// service start would miss.
			if queuedReads < 10 {
				t.Fatalf("c=%d seed %d: only %d of %d mid-run reads found a queue", slots, seed, queuedReads, len(reads))
			}
		}
	}
}
