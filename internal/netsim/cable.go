package netsim

// Degraded-cable support (§IV-A): "single cable failures can cause
// performance degradation in accessing the file system. OLCF has
// developed procedures for diagnosing a cable in-place." A degraded
// cable still links up but delivers a fraction of its bandwidth
// (symbol errors force retransmits/width reduction). The chaos
// campaign degrades and restores router uplinks this way.

// Degrade reduces the link's capacity to frac of nominal (0 < frac <=
// 1). Flows currently on the link are re-rated in insertion order;
// capacity-seconds are settled first so Utilization keeps reporting
// against the historically available bandwidth.
func (n *Network) Degrade(l *Link, frac float64) {
	if frac <= 0 || frac > 1 {
		panic("netsim: degrade fraction out of range") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	if l.nominal == 0 {
		l.nominal = l.Cap
	}
	l.accrueCap(n.eng.Now())
	l.Cap = l.nominal * frac
	l.setShare()
	n.reassign(n.affectedLink(l))
}

// Restore returns a degraded link to nominal capacity.
func (n *Network) Restore(l *Link) {
	if l.nominal != 0 {
		l.accrueCap(n.eng.Now())
		l.Cap = l.nominal
		l.nominal = 0
		l.setShare()
		n.reassign(n.affectedLink(l))
	}
}

// RouterUpLinks exposes the router->leaf port links, the cables a
// campaign degrades.
func (f *Fabric) RouterUpLinks() []*Link { return append([]*Link(nil), f.routerUp...) }
