// Sabotage fixture: panics in library code.
package panics

import "fmt"

func divide(a, b int) int {
	if b == 0 {
		panic("divide by zero") // want no-library-panic
	}
	return a / b
}

func parse(s string) int {
	if s == "" {
		panic(fmt.Errorf("empty input")) // want no-library-panic
	}
	return len(s)
}

// Stands in for the callers a fixture package does not load.
var _ = []any{parse, divide}
