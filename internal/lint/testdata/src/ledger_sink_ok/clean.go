//simlint:importpath spiderfs/internal/ledger/sinkfixok

// Clean counterpart: the ledger driven from ordered collections only —
// slices in, sorted keys where a map is unavoidable, maps used purely
// for O(1) lookup — and parallel audits writing their own slots.
package sinkfixok

import (
	"sort"
	"sync"

	"spiderfs/internal/ledger"
	"spiderfs/internal/sim"
)

// slices are ordered; appending from one is fine.
func appendList(l *ledger.Ledger, at sim.Time, actors []string) error {
	for _, actor := range actors {
		if err := l.Append(at, actor, "hardware", "incident", ""); err != nil {
			return err
		}
	}
	return nil
}

// map used as an index, drained through a sorted key slice before any
// entry extends the chain.
func appendByActor(l *ledger.Ledger, at sim.Time, incidents map[string]string) error {
	actors := make([]string, 0, len(incidents))
	for actor := range incidents { //simlint:allow ordered-map-range keys are sorted before any entry extends the chain
		actors = append(actors, actor)
	}
	sort.Strings(actors)
	for _, actor := range actors {
		if err := l.Append(at, actor, "hardware", "incident", incidents[actor]); err != nil {
			return err
		}
	}
	return nil
}

// map lookup (no range) feeding an append stays silent.
func appendNamed(l *ledger.Ledger, at sim.Time, incidents map[string]string, actor string) error {
	return l.Append(at, actor, "hardware", "incident", incidents[actor])
}

// own-slot parallel audit: each goroutine writes only out[i] with a
// goroutine-local index — the sanctioned fan-in shape.
func auditAll(exports []*ledger.Export) []int {
	out := make([]int, len(exports))
	var wg sync.WaitGroup
	for i, exp := range exports {
		wg.Add(1)
		go func(i int, exp *ledger.Export) {
			defer wg.Done()
			out[i] = len(ledger.Audit(exp))
		}(i, exp)
	}
	wg.Wait()
	return out
}

// Stands in for the callers a fixture package does not load.
var _ = []any{appendList, appendByActor, appendNamed, auditAll}
