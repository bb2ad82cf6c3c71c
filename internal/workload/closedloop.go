package workload

import (
	"spiderfs/internal/sim"
	"spiderfs/internal/stats"
)

// Loop is one closed-loop request stream: Depth requests of Size bytes
// in flight, and one more issued on each completion while every bound
// the loop sets still holds. A loop that sets neither bound issues
// nothing.
type Loop struct {
	Depth int
	Size  int64
	// Duration stops issue this long after the loop starts (0: no
	// deadline). Requests in flight at the deadline still complete.
	Duration sim.Time
	// Budget stops issue once this many bytes have been issued; the last
	// request is cut to fit (0: no budget).
	Budget int64
}

// Issue submits one request of n bytes to a target and calls done when
// it completes. A target's Issue owns everything else about the request:
// its offset, its direction and the random draws that pick them.
type Issue func(n int64, done func())

// Result is what a closed-loop run measured: completed requests and
// bytes, the time from the first issue until the last completion, and
// the per-request latency in milliseconds.
type Result struct {
	Ops       uint64
	Bytes     int64
	Elapsed   sim.Time
	LatencyMs stats.Summary
}

// MBps is the run's throughput in decimal MB/s.
func (r Result) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// IOPS is the run's completed requests per second.
func (r Result) IOPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Drive starts each loop in order against issue, runs eng until every
// request has completed, and returns the loops' combined result.
func Drive(eng *sim.Engine, issue Issue, loops ...Loop) Result {
	var res Result
	start := eng.Now()
	for _, l := range loops {
		if l.Duration <= 0 && l.Budget <= 0 {
			continue // unbounded: issues nothing
		}
		end := start + l.Duration
		if end < start { // overflow: saturate at the end of representable time
			end = sim.MaxTime
		}
		var issued int64
		var next func()
		next = func() {
			if l.Duration > 0 && eng.Now() >= end {
				return
			}
			n := l.Size
			if l.Budget > 0 {
				if issued >= l.Budget {
					return
				}
				n = min(n, l.Budget-issued)
			}
			issued += n
			t0 := eng.Now()
			issue(n, func() {
				res.Ops++
				res.Bytes += n
				res.LatencyMs.Add((eng.Now() - t0).Millis())
				next()
			})
		}
		for range l.Depth {
			next()
		}
	}
	eng.Run()
	res.Elapsed = eng.Now() - start
	return res
}
