// Clean fixture: randomness drawn from a seeded internal/rng stream.
package globalrandok

import "spiderfs/internal/rng"

func roll(src *rng.Source) int {
	return src.Intn(6)
}

func split(src *rng.Source) *rng.Source {
	return src.Split("dice")
}

// Stands in for the callers a fixture package does not load.
var _ = []any{split, roll}
