// Clean counterpart to callback_value: handing around callbacks that
// never reach a determinism sink creates edges but no hazard, and a
// map range next to them stays legal.
package callbackvalueok

import "strings"

type row struct {
	name  string
	count int
}

func apply(rows []row, f func(row) string) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, f(r))
	}
	return out
}

func render(r row) string {
	return r.name + ":" + strings.Repeat("*", r.count)
}

// render is handed off as a value, but it only builds strings — no
// engine, no report writer — so the map range is order-insensitive
// as far as the determinism contract cares (the result is returned,
// not emitted).
func renderAll(counts map[string]int) []string {
	var rows []row
	for name, n := range counts {
		rows = append(rows, row{name: name, count: n})
	}
	return apply(rows, render)
}

// Stands in for the callers a fixture package does not load.
var _ = []any{renderAll}
