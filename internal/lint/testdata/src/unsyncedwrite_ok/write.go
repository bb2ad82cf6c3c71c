// Clean counterpart to unsyncedwrite: the three legal shapes — a
// mutex-guarded write (legal outside the own-slot packages, where only
// memory safety is at stake), own-slot writes into a private index,
// and goroutine-local state drained through a channel.
package unsyncedwriteok

import "sync"

// mutex-mediated accumulation: sync mediation is visible in the body.
func countLocked(parts [][]int) int {
	total := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(part []int) {
			defer wg.Done()
			sum := 0
			for _, v := range part {
				sum += v
			}
			mu.Lock()
			total += sum
			mu.Unlock()
		}(part)
	}
	wg.Wait()
	return total
}

// own-slot fan-out: each worker owns sums[w].
func countSlotted(parts [][]int) []int {
	sums := make([]int, len(parts))
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, v := range parts[w] {
				sums[w] += v
			}
		}(w)
	}
	wg.Wait()
	return sums
}

// channel drain: goroutines keep everything local and send results.
func countChan(parts [][]int) int {
	res := make(chan int, len(parts))
	for _, part := range parts {
		go func(part []int) {
			sum := 0
			for _, v := range part {
				sum += v
			}
			res <- sum
		}(part)
	}
	total := 0
	for range parts {
		total += <-res
	}
	return total
}

// Stands in for the callers a fixture package does not load.
var _ = []any{countLocked, countSlotted, countChan}
