package sim

import (
	"fmt"
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
