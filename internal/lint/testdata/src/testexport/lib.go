// Sabotage fixture: functions and methods that only tests would call,
// exported or not, and a field that is written but never read.
package testexport

type Counter struct{ n int } // want test-only-export

func (c *Counter) Add(k int) { c.n += k }

func (c *Counter) Reset() { c.n = 0 } // want test-only-export

func Sum(xs []int) int { // want test-only-export
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// Fib only calls itself, and recursion is not a caller.
func Fib(n int) int { // want test-only-export
	if n < 2 {
		return n
	}
	return Fib(n-1) + Fib(n-2)
}

// zero has only a test caller.
func zero(c *Counter) { c.n = 0 } // want test-only-export

func tick(c *Counter) { c.Add(1) }

// Stands in for the callers a fixture package does not load.
var _ = []any{tick}
