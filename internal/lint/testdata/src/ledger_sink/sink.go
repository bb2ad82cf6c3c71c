//simlint:importpath spiderfs/internal/ledger/sinkfix

// Sabotage fixture: the ledger package is an append-order sink — every
// Append extends a hash chain, so entry order IS the Merkle root.
// Feeding Append from a map range bakes Go's random iteration order
// into the anchored roots, and two identical campaigns stop agreeing
// on their root sequences. Flagged directly and one call away, like
// the other sinks. The fixture's import path also places it inside
// internal/ledger, where the single-writer discipline applies: a
// go-funclit write to captured state bypasses the one-appender seam.
package sinkfix

import (
	"sync"

	"spiderfs/internal/ledger"
	"spiderfs/internal/sim"
)

// direct: the range and the Append live in the same function.
func appendAll(l *ledger.Ledger, at sim.Time, incidents map[string]string) int {
	n := 0
	for actor, detail := range incidents { // want ordered-map-range
		if err := l.Append(at, actor, "hardware", "incident", detail); err == nil {
			n++
		}
	}
	return n
}

func appendOne(l *ledger.Ledger, at sim.Time, actor, detail string) error {
	return l.Append(at, actor, "operator", "repair", detail)
}

// one hop: the range feeds appendOne, which extends the chain.
func appendRepairs(l *ledger.Ledger, at sim.Time, repairs map[string]string) {
	for actor, detail := range repairs { // want ordered-map-range
		if err := appendOne(l, at, actor, detail); err != nil {
			return
		}
	}
}

// captured-state write from a go funclit: inside internal/ledger the
// chain has exactly one appender, so a goroutine accumulating into
// shared captured state is the seam bypass — the mutex only hides it
// from the race detector.
func auditAll(exports []*ledger.Export) int {
	clean := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, exp := range exports {
		wg.Add(1)
		go func(exp *ledger.Export) {
			defer wg.Done()
			if len(ledger.Audit(exp)) == 0 {
				mu.Lock()
				clean++ // want shard-isolation
				mu.Unlock()
			}
		}(exp)
	}
	wg.Wait()
	return clean
}

// Stands in for the callers a fixture package does not load.
var _ = []any{appendAll, appendRepairs, auditAll}
