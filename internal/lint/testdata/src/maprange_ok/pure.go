// Clean fixture: map iteration in pure computation, far from any
// scheduling or emission sink, is legitimate and stays unflagged.
package maprangeok

func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

func keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Stands in for the callers a fixture package does not load.
var _ = []any{keys, invert}
