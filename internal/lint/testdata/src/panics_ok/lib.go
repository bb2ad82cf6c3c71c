// Clean fixture: errors for runtime failures, one annotated
// invariant assertion for a provable can't-happen state.
package panicsok

import "errors"

var errClosed = errors.New("panicsok: closed")

type Box struct {
	n      int
	closed bool
}

func (b *Box) take() (int, error) {
	if b.closed {
		return 0, errClosed
	}
	if b.n < 0 {
		panic("panicsok: negative count") //simlint:allow no-library-panic can't-happen internal invariant: put never stores negatives
	}
	return b.n, nil
}

func (b *Box) put(n int) error {
	if n < 0 {
		return errors.New("panicsok: negative input")
	}
	b.n = n
	return nil
}

// Stands in for the callers a fixture package does not load.
var _ = []any{(*Box).take, (*Box).put}
