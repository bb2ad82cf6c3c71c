// Debt fixture: a test-only-export directive on a function that no
// file mentions, test files included. Its tests are gone, so the
// directive's reason no longer holds and the debt gate names Settle.
package untested

type Network struct{ settled int }

func (n *Network) Start() { n.settled = 0 }

//simlint:allow test-only-export settles counters so the solver tests can read them mid-transfer
func (n *Network) Settle() { n.settled++ }

func run() { (&Network{}).Start() }
