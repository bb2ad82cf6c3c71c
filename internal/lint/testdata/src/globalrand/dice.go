// Sabotage fixture: math/rand instead of seeded internal/rng streams.
package globalrand

import "math/rand"

func roll() int {
	return rand.Intn(6) // want no-global-rand
}

func noisy() float64 {
	return rand.Float64() // want no-global-rand
}

func localStream() *rand.Rand {
	// Even a locally seeded generator bypasses the named-stream
	// discipline; both constructor calls are flagged.
	return rand.New(rand.NewSource(42)) // want no-global-rand no-global-rand
}

// Stands in for the callers a fixture package does not load.
var _ = []any{noisy, localStream, roll}
