// Sabotage fixture for dropped errors: the PR 1 contract made every
// simulation failure a counted, returned error — a call site that
// ignores the return un-counts it. Bare statement calls (plain, go,
// defer) to module-local error-returning functions are flagged; the
// explicit `_ =` discard is the sanctioned, greppable escape.
package droppederr

import "errors"

type device struct {
	healthy bool
}

func (d *device) flush() error {
	if !d.healthy {
		return errors.New("droppederr: device offline")
	}
	return nil
}

func step(d *device) error {
	return d.flush()
}

// bare statement call: the error evaporates.
func tick(d *device) {
	step(d) // want dropped-error
}

// go statement: the error evaporates on another goroutine.
func tickAsync(d *device) {
	go step(d) // want dropped-error
}

// defer statement: the classic deferred-close shape.
func tickDeferred(d *device) {
	defer d.flush() // want dropped-error
	step(d)         // want dropped-error
}

// explicit discard is deliberate and stays legal.
func tickExplicit(d *device) {
	_ = step(d)
}

// handled: the shape the check pushes toward.
func tickHandled(d *device) error {
	if err := step(d); err != nil {
		return err
	}
	return nil
}

// Stands in for the callers a fixture package does not load.
var _ = []any{tick, tickAsync, tickDeferred, tickExplicit, tickHandled}
