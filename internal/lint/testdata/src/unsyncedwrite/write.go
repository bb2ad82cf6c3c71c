// Sabotage fixture for unsynced shared writes: outside the own-slot
// packages, a goroutine writing captured state without sync mediation is
// a data race the race detector only catches when the scheduler
// cooperates. simlint flags the write shape itself.
package unsyncedwrite

import "sync"

// bare captured counter: the textbook race.
func countAll(parts [][]int) int {
	total := 0
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(part []int) {
			defer wg.Done()
			for _, v := range part {
				total += v // want unsynced-shared-write
			}
		}(part)
	}
	wg.Wait()
	return total
}

// captured error slot: last writer wins, nondeterministically.
func firstError(steps []func() error) error {
	var firstErr error
	var wg sync.WaitGroup
	for _, step := range steps {
		wg.Add(1)
		go func(step func() error) {
			defer wg.Done()
			if err := step(); err != nil {
				firstErr = err // want unsynced-shared-write
			}
		}(step)
	}
	wg.Wait()
	return firstErr
}

// shared map write races even with a goroutine-local key.
func index(names []string) map[string]bool {
	seen := map[string]bool{}
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			seen[name] = true // want unsynced-shared-write
		}(name)
	}
	wg.Wait()
	return seen
}

// Stands in for the callers a fixture package does not load.
var _ = []any{countAll, firstError, index}
