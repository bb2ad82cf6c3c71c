// Sabotage fixture: environment and filesystem reads inside a
// simulation package.
package envread

import "os"

func configured() string {
	return os.Getenv("SPIDER_MODE") // want env-free-sim
}

func load(path string) ([]byte, error) {
	return os.ReadFile(path) // want env-free-sim
}

func openIt(path string) (*os.File, error) {
	return os.Open(path) // want env-free-sim
}

// Stands in for the callers a fixture package does not load.
var _ = []any{load, openIt, configured}
