package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-bucket histogram. Buckets may be linear or
// logarithmic; values below the first edge land in an underflow bucket
// and values at or above the last edge land in an overflow bucket.
type Histogram struct {
	edges     []float64 // len B+1 ascending
	counts    []uint64  // len B
	underflow uint64
	overflow  uint64
	total     uint64
}

// NewLinearHistogram covers [lo, hi) with n equal-width buckets.
//
//simlint:allow test-only-export fixed-bucket histogram kept for the planned metrics registry; its tests pin the bucketing
func NewLinearHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 || hi <= lo {
		panic("stats: invalid linear histogram parameters") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	edges := make([]float64, n+1)
	w := (hi - lo) / float64(n)
	for i := range edges {
		edges[i] = lo + w*float64(i)
	}
	edges[n] = hi
	return &Histogram{edges: edges, counts: make([]uint64, n)}
}

// NewLogHistogram covers [lo, hi) with n buckets whose widths grow
// geometrically. lo must be positive. I/O size and latency distributions
// are long-tailed, so log bucketing is the default in this repo.
//
//simlint:allow test-only-export fixed-bucket histogram kept for the planned metrics registry; its tests pin the bucketing
func NewLogHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 || lo <= 0 || hi <= lo {
		panic("stats: invalid log histogram parameters") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	edges := make([]float64, n+1)
	ratio := math.Pow(hi/lo, 1/float64(n))
	edges[0] = lo
	for i := 1; i <= n; i++ {
		edges[i] = edges[i-1] * ratio
	}
	edges[n] = hi
	return &Histogram{edges: edges, counts: make([]uint64, n)}
}

// Add records one observation.
//
//simlint:allow test-only-export fixed-bucket histogram kept for the planned metrics registry; its tests pin the bucketing
func (h *Histogram) Add(x float64) {
	h.total++
	if x < h.edges[0] {
		h.underflow++
		return
	}
	if x >= h.edges[len(h.edges)-1] {
		h.overflow++
		return
	}
	// binary search for the bucket
	lo, hi := 0, len(h.counts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if h.edges[mid] <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	h.counts[lo]++
}

// Total returns the number of observations including under/overflow.
//
//simlint:allow test-only-export fixed-bucket histogram kept for the planned metrics registry; its tests pin the bucketing
func (h *Histogram) Total() uint64 { return h.total }

// Buckets returns the number of (non-overflow) buckets.
//
//simlint:allow test-only-export fixed-bucket histogram kept for the planned metrics registry; its tests pin the bucketing
func (h *Histogram) Buckets() int { return len(h.counts) }

// Count returns the count in bucket i.
//
//simlint:allow test-only-export fixed-bucket histogram kept for the planned metrics registry; its tests pin the bucketing
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// BucketBounds returns the [lo, hi) edges of bucket i.
func (h *Histogram) BucketBounds(i int) (lo, hi float64) {
	return h.edges[i], h.edges[i+1]
}

// Underflow and Overflow return the out-of-range counts.
//
//simlint:allow test-only-export fixed-bucket histogram kept for the planned metrics registry; its tests pin the bucketing
func (h *Histogram) Underflow() uint64 { return h.underflow }

//simlint:allow test-only-export fixed-bucket histogram kept for the planned metrics registry; its tests pin the bucketing
func (h *Histogram) Overflow() uint64 { return h.overflow }

// FractionBelow returns the fraction of observations strictly below x,
// linearly interpolating within the containing bucket.
//
//simlint:allow test-only-export fixed-bucket histogram kept for the planned metrics registry; its tests pin the bucketing
func (h *Histogram) FractionBelow(x float64) float64 {
	if h.total == 0 {
		return 0
	}
	cum := h.underflow
	for i := range h.counts {
		lo, hi := h.edges[i], h.edges[i+1]
		if x < lo {
			break
		}
		if x >= hi {
			cum += h.counts[i]
			continue
		}
		frac := (x - lo) / (hi - lo)
		cum += uint64(frac * float64(h.counts[i]))
		break
	}
	return float64(cum) / float64(h.total)
}

// Merge adds the counts of o (which must have identical bucketing).
//
//simlint:allow test-only-export fixed-bucket histogram kept for the planned metrics registry; its tests pin the bucketing
func (h *Histogram) Merge(o *Histogram) {
	if len(h.edges) != len(o.edges) {
		panic("stats: merging histograms with different bucketing") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	for i, e := range h.edges {
		if e != o.edges[i] {
			panic("stats: merging histograms with different bucketing") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
		}
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.underflow += o.underflow
	h.overflow += o.overflow
	h.total += o.total
}

// Render returns a multi-line ASCII rendering with proportional bars,
// used by the CLI tools to print distribution tables.
//
//simlint:allow test-only-export fixed-bucket histogram kept for the planned metrics registry; its tests pin the bucketing
func (h *Histogram) Render(width int) string {
	if width < 10 {
		width = 10
	}
	var max uint64
	for _, c := range h.counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for i, c := range h.counts {
		lo, hi := h.BucketBounds(i)
		bar := 0
		if max > 0 {
			bar = int(float64(c) / float64(max) * float64(width))
		}
		fmt.Fprintf(&b, "[%12.4g, %12.4g) %10d %s\n", lo, hi, c, strings.Repeat("#", bar))
	}
	if h.underflow > 0 {
		fmt.Fprintf(&b, "underflow %d\n", h.underflow)
	}
	if h.overflow > 0 {
		fmt.Fprintf(&b, "overflow %d\n", h.overflow)
	}
	return b.String()
}

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
