// Clean fixture: stdlib and module-local imports only.
package importsok

import (
	"sort"

	"spiderfs/internal/sim"
)

func horizon(ts []sim.Time) sim.Time {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	if len(ts) == 0 {
		return 0
	}
	return ts[len(ts)-1]
}

// Stands in for the callers a fixture package does not load.
var _ = []any{horizon}
