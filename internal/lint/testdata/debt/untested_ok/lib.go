// Clean debt fixture: the same directive, and a test still calls the
// function it keeps.
package untestedok

type Network struct{ settled int }

func (n *Network) Start() { n.settled = 0 }

//simlint:allow test-only-export settles counters so the solver tests can read them mid-transfer
func (n *Network) Settle() { n.settled++ }

func run() { (&Network{}).Start() }
