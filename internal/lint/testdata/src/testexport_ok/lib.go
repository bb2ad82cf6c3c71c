// Clean fixture: every export has a non-test caller, directly, as a
// func value, or through an interface the loaded packages declare or
// import, or it carries a reason.
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

func run() string {
	c := &Counter{}
	apply := Double
	c.Add(apply(3))
	xs := byValue{3, 1, 2}
	sort.Sort(xs)
	return fmt.Sprint(c, xs)
}
