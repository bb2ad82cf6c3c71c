// Sabotage fixture: exported functions and methods that only tests
// would call.
package testexport

type Counter struct{ n int }

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

func tick(c *Counter) { c.Add(1) }
