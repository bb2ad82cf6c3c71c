package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEngineEventThroughput measures raw event dispatch rate — the
// budget every model layer spends from.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if e.Pending() > 10000 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkServerPipeline measures the FIFO server per job: b.N jobs
// through a lone single-slot server with 1 or 1,024 jobs standing in
// its queue, as bench/probes.go's sim.server_ns_per_job probe does. The
// two sub-benchmarks cost the same when the dequeue is O(1).
func BenchmarkServerPipeline(b *testing.B) {
	for _, depth := range []int{1, 1024} {
		b.Run(fmt.Sprintf("q%d", depth), func(b *testing.B) {
			e := NewEngine()
			s := NewServer(e, "bench", 1)
			submitted := 0
			var next func()
			next = func() {
				if submitted < b.N {
					submitted++
					s.Submit(Microsecond, next)
				}
			}
			b.ReportAllocs()
			for i := 0; i <= depth; i++ {
				next()
			}
			e.Run()
		})
	}
}

// BenchmarkServerBurst is the queue-growth rung: one op submits a
// 2,000-deep burst to a single-slot server and runs it until the queue
// drains, as an S3D dump or an IOR sweep floods a drive's FIFO. The
// drained queue held more than maxDrainedRing slots and is released, so
// every op grows it again from empty: B/op and allocs/op are the cost
// of that growth.
func BenchmarkServerBurst(b *testing.B) {
	const depth = 2000
	e := NewEngine()
	s := NewServer(e, "burst", 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j <= depth; j++ { // one in service, depth queued
			s.Submit(Microsecond, nil)
		}
		e.Run()
	}
}

// BenchmarkCancelChurn measures schedule+cancel cycles (the network
// layer's completion-event rescheduling pattern).
func BenchmarkCancelChurn(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := e.After(Second, func() {})
		ev.Cancel()
		if e.Pending() > 10000 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineSameInstant measures the controller's re-admission
// shape: a chain of After(0) events fires through an engine whose heap
// holds 100 future events, as Controller.Flushed's per-waiter readmits
// do. One op is one same-instant event scheduled and fired.
func BenchmarkEngineSameInstant(b *testing.B) {
	e := NewEngine()
	const standing = 100
	for i := 0; i < standing; i++ {
		e.At(Hour+Time(i), func() {})
	}
	n := 0
	var next func()
	next = func() {
		if n < b.N {
			n++
			e.After(0, next)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	next()
	for e.Pending() > standing {
		e.Step()
	}
}

// BenchmarkEngineHold is the hold model: n events stand in the engine,
// and each fired event schedules one successor at an exponential delay
// (mean 1 ms), so the depth stays at n. One op is one event fired and
// one scheduled. The three depths are paper-storage's, fabric-waves'
// and chaos-week's deepest pending sets (DESIGN.md, "Engine events,
// handles and tombstones").
func BenchmarkEngineHold(b *testing.B) {
	for _, n := range []int{400, 2048, 20000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			delays := make([]Time, 1<<12)
			for i := range delays {
				delays[i] = 1 + Time(r.ExpFloat64()*float64(Millisecond))
			}
			e := NewEngine()
			k := 0
			var fire func()
			fire = func() {
				k++
				e.After(delays[k&(len(delays)-1)], fire)
			}
			for i := 0; i < n; i++ {
				fire()
			}
			for i := 0; i < 4*n; i++ { // reach the steady-state spread
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
