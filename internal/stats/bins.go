package stats

import "sort"

// Bins divides a set of labeled measurements into q quantile bins and is
// used for the paper's "performance bins" slow-disk analysis (§V-A):
// RAID groups are binned by measured bandwidth and the lowest bin is
// inspected for slow disks.
type Bins struct {
	// Members[i] lists the indices of members of bin i, ascending bins by
	// value (bin 0 = slowest).
	Members [][]int
	// Edges[i] is the upper value bound of bin i.
	Edges []float64
}

// QuantileBins assigns each value's index to one of q equal-population
// bins ordered by value.
func QuantileBins(values []float64, q int) Bins {
	if q < 1 {
		q = 1
	}
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sortIdx(idx, values)
	bins := Bins{Members: make([][]int, q), Edges: make([]float64, q)}
	for b := 0; b < q; b++ {
		lo := b * len(values) / q
		hi := (b + 1) * len(values) / q
		bins.Members[b] = append([]int(nil), idx[lo:hi]...)
		if hi > lo {
			bins.Edges[b] = values[idx[hi-1]]
		} else if b > 0 {
			bins.Edges[b] = bins.Edges[b-1]
		}
	}
	return bins
}

func sortIdx(idx []int, values []float64) {
	sort.Slice(idx, func(i, j int) bool { return values[idx[i]] < values[idx[j]] })
}
