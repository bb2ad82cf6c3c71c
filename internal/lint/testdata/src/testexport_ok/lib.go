// Clean fixture: every function has a non-test caller, directly, as a
// func value, or through an interface the loaded packages declare or
// import, or it carries a reason; and every field has a reader.
package testexportok

import (
	"fmt"
	"sort"
)

type Counter struct{ n int }

func (c *Counter) Add(k int) { c.n += k }

// String is reached through fmt.Stringer.
func (c *Counter) String() string { return fmt.Sprint(c.n) }

// byValue is reached through sort.Interface.
type byValue []int

func (b byValue) Len() int           { return len(b) }
func (b byValue) Less(i, j int) bool { return b[i] < b[j] }
func (b byValue) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Double is only handed off as a func value.
func Double(x int) int { return 2 * x }

//simlint:allow test-only-export oracle the tests check Counter.Add against
func Total(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// Gauge.last is read only by a test: an oracle.
type Gauge struct{ last int }

func (g *Gauge) Set(v int) { g.last = v }

// Row's fields are read by encoding/json, through the tag.
type Row struct {
	Label string `json:"label"`
}

// slot's fields are read by every lookup of the map it keys.
type slot struct{ rack, bay int }

// span's fields are read by every == on a span.
type span struct{ lo, hi int }

// area is reached only through shape.
type shape interface{ area() int }

type square struct{ side int }

func (s square) area() int { return s.side * s.side }

func run() string {
	c := &Counter{}
	apply := Double
	c.Add(apply(3))
	xs := byValue{3, 1, 2}
	sort.Sort(xs)
	g := &Gauge{}
	g.Set(len(xs))
	used := map[slot]bool{{rack: 1, bay: 2}: true}
	same := span{lo: 1} == span{hi: 2}
	var s shape = square{side: 2}
	return fmt.Sprint(c, xs, Row{Label: "a"}, len(used), same, s.area())
}

// Stands in for the callers a fixture package does not load.
var _ = []any{run}
