package workload

import (
	"math"
	"testing"

	"spiderfs/internal/sim"
)

// serverTarget is a closed-loop target backed by a 1-slot FIFO server
// with a fixed service time. It counts requests in flight and the
// completions that land before a deadline.
type serverTarget struct {
	eng         *sim.Engine
	srv         *sim.Server
	service     sim.Time
	deadline    sim.Time
	inFlight    int
	maxInFlight int
	issued      int
	early       int // completions strictly before deadline
}

func (s *serverTarget) issue(n int64, done func()) {
	s.issued++
	s.inFlight++
	s.maxInFlight = max(s.maxInFlight, s.inFlight)
	s.srv.Submit(s.service, func() {
		s.inFlight--
		if s.eng.Now() < s.deadline {
			s.early++
		}
		done()
	})
}

func newServerTarget(service, deadline sim.Time) *serverTarget {
	eng := sim.NewEngine()
	return &serverTarget{eng: eng, srv: sim.NewServer(eng, "oracle", 1), service: service, deadline: deadline}
}

// TestDriveLittlesLaw checks the closed loop against the closed-form
// behaviour of a depth-d loop on one FIFO slot with service time S:
// never more than d in flight, d initial requests plus one per
// completion before the deadline, and Little's law L = X·W = d up to
// the warm-up term. The first d requests queue behind each other
// (latencies S, 2S, ..., dS); every later one waits for the d-1 ahead
// of it (latency dS); completions are S apart. With n = ops - d,
// X·W = d - d(d-1)/(2(d+n)).
func TestDriveLittlesLaw(t *testing.T) {
	const service = sim.Millisecond
	deadline := 100*service + service/2 // completions at 1..100 ms are before it
	for _, d := range []int{1, 2, 4, 16} {
		tgt := newServerTarget(service, deadline)
		res := Drive(tgt.eng, tgt.issue, Loop{Depth: d, Size: 4096, Duration: deadline})

		if tgt.maxInFlight != d || tgt.inFlight != 0 {
			t.Errorf("d=%d: max %d in flight (want %d), %d left", d, tgt.maxInFlight, d, tgt.inFlight)
		}
		if want := uint64(d + tgt.early); res.Ops != want || tgt.early != 100 || tgt.issued != int(res.Ops) {
			t.Errorf("d=%d: %d ops, %d issued, %d completions before the deadline; want %d = d + 100", d, res.Ops, tgt.issued, tgt.early, want)
		}
		if res.Bytes != int64(res.Ops)*4096 || res.Elapsed != sim.Time(res.Ops)*service {
			t.Errorf("d=%d: %d bytes over %v for %d ops", d, res.Bytes, res.Elapsed, res.Ops)
		}
		x := float64(res.Ops) / res.Elapsed.Millis() // per ms
		n := float64(res.Ops) - float64(d)
		want := float64(d) - float64(d*(d-1))/(2*(float64(d)+n))
		if got := x * res.LatencyMs.Mean; math.Abs(got-want) > 1e-9*want {
			t.Errorf("d=%d: X·W = %.12f, want %.12f", d, got, want)
		}
		if got := res.IOPS(); math.Abs(got-1e3) > 1e-9 {
			t.Errorf("d=%d: %.9f IOPS, want 1000 (one per service time)", d, got)
		}
	}
}

// TestDriveByteBudget: a budget of k requests' bytes issues exactly k
// requests; a budget that is not a multiple of the size cuts the last
// request to fit. Parallel streams each spend their own budget. A loop
// with neither a budget nor a deadline issues nothing. A deadline so far
// away that start+Duration overflows, on a loop started after t = 0,
// still leaves the budget to stop the loop.
func TestDriveByteBudget(t *testing.T) {
	for _, c := range []struct {
		depth, streams int
		budget         int64
		wantOps        uint64
		start, dur     sim.Time
	}{
		{1, 1, 10 * 4096, 10, 0, 0},
		{4, 1, 10 * 4096, 10, 0, 0},
		{16, 1, 10 * 4096, 10, 0, 0},
		{4, 1, 10*4096 + 100, 11, 0, 0},
		{1, 3, 5 * 4096, 15, 0, 0},
		{4, 1, 0, 0, 0, 0},
		{4, 1, 10 * 4096, 10, sim.Second, sim.MaxTime},
	} {
		tgt := newServerTarget(sim.Millisecond, 0)
		tgt.eng.RunUntil(c.start)
		streams := make([]Loop, c.streams)
		for i := range streams {
			streams[i] = Loop{Depth: c.depth, Size: 4096, Budget: c.budget, Duration: c.dur}
		}
		res := Drive(tgt.eng, tgt.issue, streams...)
		if res.Ops != c.wantOps || tgt.issued != int(c.wantOps) || res.Bytes != int64(c.streams)*c.budget {
			t.Errorf("%+v: %d ops (%d issued), %d bytes; want %d ops, %d bytes", c, res.Ops, tgt.issued, res.Bytes, c.wantOps, int64(c.streams)*c.budget)
		}
		if want := min(c.depth*c.streams, int(c.wantOps)); tgt.maxInFlight != want {
			t.Errorf("%+v: max %d in flight, want %d", c, tgt.maxInFlight, want)
		}
	}
}
