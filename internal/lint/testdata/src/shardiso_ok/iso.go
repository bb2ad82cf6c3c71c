//simlint:importpath spiderfs/internal/sweep/fixture2

// Clean counterpart to shardiso: the sanctioned worker-pool shapes.
// Each goroutine claims indices and writes only its own slot (the
// internal/sweep pattern), or keeps everything goroutine-local and
// returns results through the slot.
package fixture2

import "sync"

type replica struct {
	seed uint64
	out  uint64
}

func run(r replica) uint64 { return r.seed * 2654435761 }

// own-slot writes: out[i] with i claimed inside the goroutine is
// private memory; the merge below never depends on completion order.
func runAll(reps []replica, workers int) []uint64 {
	out := make([]uint64, len(reps))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = run(reps[i])
			}
		}()
	}
	for i := range reps {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// goroutine-local state only: accumulator declared inside the go func,
// result handed out through the private slot.
func sumPerWorker(parts [][]uint64) []uint64 {
	sums := make([]uint64, len(parts))
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local uint64
			for _, v := range parts[w] {
				local += v
			}
			sums[w] = local
		}(w)
	}
	wg.Wait()
	return sums
}

// Stands in for the callers and readers a fixture package does not load.
var _ = []any{runAll, sumPerWorker, func(r replica) uint64 { return r.out }}
