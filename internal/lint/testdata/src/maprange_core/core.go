//simlint:importpath spiderfs/internal/netsim/tcase

// Sabotage fixture: inside an engine-adjacent package every map
// iteration is banned, even ones that never reach a sink — hot-path
// refactors move code too easily for a narrower rule to stay safe.
package tcase

func sum(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want ordered-map-range
		total += v
	}
	return total
}

func overSlice(s []float64) float64 {
	var total float64
	for _, v := range s { // slices are ordered; not flagged
		total += v
	}
	return total
}

// Stands in for the callers a fixture package does not load.
var _ = []any{overSlice, sum}
