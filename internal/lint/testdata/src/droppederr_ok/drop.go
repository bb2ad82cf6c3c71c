// Clean counterpart to droppederr: errors are returned, counted, or
// explicitly discarded, and calls to functions that return nothing (or
// non-error values) are never flagged.
package droppederrok

import "errors"

type counter struct {
	failures int
}

func (c *counter) bump() {
	c.failures++
}

func work(ok bool) error {
	if !ok {
		return errors.New("droppederrok: step failed")
	}
	return nil
}

func size() int { return 42 }

// counted error path: the paper's operating model for partial failure.
func runCounted(c *counter, steps []bool) int {
	for _, ok := range steps {
		if err := work(ok); err != nil {
			c.bump()
		}
	}
	return c.failures
}

// void and non-error calls are not the check's business.
func runOther(c *counter) int {
	c.bump()
	return size()
}

// explicit discard with a visible underscore.
func runDiscard() {
	_ = work(true)
}

// Stands in for the callers a fixture package does not load.
var _ = []any{runCounted, runOther, runDiscard}
