package netsim

import "sort"

// Degraded-cable support (§IV-A): "single cable failures can cause
// performance degradation in accessing the file system. OLCF has
// developed procedures for diagnosing a cable in-place." A degraded
// cable still links up but delivers a fraction of its bandwidth
// (symbol errors force retransmits/width reduction); the diagnosis
// procedure compares sibling links' delivered throughput.

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

// CableSuspect is one row of the in-place diagnosis report.
type CableSuspect struct {
	Name string
	// PerFlowBps is the link's mean delivered bytes/sec per unit of
	// flow-seconds observed — the metric that exposes a weak cable among
	// siblings carrying statistically identical traffic.
	Throughput float64
	// RatioToMedian below ~0.7 marks a suspect.
	RatioToMedian float64
}

// DiagnoseCables compares the utilization-normalized throughput of a
// sibling group of links (e.g. all router->leaf ports) at time now and
// returns them ranked worst-first. Links that carried no traffic are
// skipped — the procedure requires exercising the path, as OLCF's did.
// For even-sized sibling groups the median is the mean of the two
// middle throughputs (taking the upper-middle element alone biases
// RatioToMedian low); equal ratios are broken by link name so the
// ranking is deterministic.
func DiagnoseCables(links []*Link, nowSeconds float64) []CableSuspect {
	var rates []float64
	var rows []CableSuspect
	for _, l := range links {
		if l.BytesCarried <= 0 || nowSeconds <= 0 {
			continue
		}
		r := l.BytesCarried / nowSeconds
		rates = append(rates, r)
		rows = append(rows, CableSuspect{Name: l.Name, Throughput: r})
	}
	if len(rows) == 0 {
		return nil
	}
	sorted := append([]float64(nil), rates...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		median = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	for i := range rows {
		if median > 0 {
			rows[i].RatioToMedian = rows[i].Throughput / median
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].RatioToMedian != rows[j].RatioToMedian {
			return rows[i].RatioToMedian < rows[j].RatioToMedian
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// RouterUpLinks exposes the router->leaf port links for cable
// diagnosis sweeps.
func (f *Fabric) RouterUpLinks() []*Link { return append([]*Link(nil), f.routerUp...) }
