// Clean fixture: hermetic simulation code takes readers and data from
// the caller; the cmd/ layer owns the filesystem.
package envreadok

import (
	"io"
)

func load(r io.Reader) ([]byte, error) {
	return io.ReadAll(r)
}

func emit(w io.Writer, b []byte) error {
	_, err := w.Write(b)
	return err
}

// Stands in for the callers a fixture package does not load.
var _ = []any{emit, load}
