// Sabotage fixture: a third-party import. It lives in a _test.go file
// so only the import scanner reports it (type errors in test files are
// dropped), proving the check covers tests too.
package imports

import (
	"testing"

	"github.com/acme/widget" // want stdlib-only-imports
)

func TestWidget(t *testing.T) {
	_ = widget.New()
}
