// Package procure encodes the acquisition mathematics of §III and
// §VII: checkpoint-driven bandwidth sizing (75% of memory in 6 minutes
// -> 1 TB/s), the random-I/O derating rule (a near-line drive delivers
// 20-25% of peak under random 1 MiB I/O -> 240 GB/s), the 30x-memory
// capacity rule used in the CORAL acquisition, the Scalable System Unit
// (SSU) building-block model, weighted RFP evaluation, and the
// data-centric vs machine-exclusive cost comparison.
package procure

import (
	"fmt"
	"sort"

	"spiderfs/internal/sim"
)

// CheckpointBandwidth returns the file-system bandwidth needed to dump
// fraction of memBytes within window — the requirement that set Spider
// II's 1 TB/s target (600 TB, 75%, 6 min).
func CheckpointBandwidth(memBytes float64, fraction float64, window sim.Time) float64 {
	if memBytes <= 0 || fraction <= 0 || fraction > 1 || window <= 0 {
		panic("procure: invalid checkpoint sizing inputs") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	return memBytes * fraction / window.Seconds()
}

// RandomDerate converts a sequential bandwidth requirement into the
// random-I/O number to put in the RFP, using the measured single-drive
// ratio (20-25% on NL-SAS with 1 MiB blocks).
func RandomDerate(seqBps, ratio float64) float64 {
	if ratio <= 0 || ratio > 1 {
		panic("procure: derate ratio out of range") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	return seqBps * ratio
}

// CapacityTarget applies the 30x aggregate-memory rule (§VII; also used
// by DOE/NNSA CORAL). headroom adds the margin that keeps the system
// below its performance-degradation fill level (Lesson 10 suggests 30%
// or more above workload estimates).
func CapacityTarget(aggregateMemBytes float64, multiple, headroom float64) float64 {
	if multiple <= 0 {
		multiple = 30
	}
	return aggregateMemBytes * multiple * (1 + headroom)
}

// SSU is the vendor-defined Scalable System Unit: the unit of
// configuration, pricing, benchmarking, and integration.
type SSU struct {
	SeqBps   float64
	RandBps  float64
	Capacity float64 // bytes
	Disks    int
	PriceUSD float64
}

// Spider2SSU returns the as-built Spider II unit: 560 drives, ~28 GB/s
// sequential, ~0.9 PB usable, one of 36.
func Spider2SSU() SSU {
	return SSU{
		SeqBps:   28e9,
		RandBps:  6.7e9,
		Capacity: 0.9e15,
		Disks:    560,
		PriceUSD: 1.1e6,
	}
}

// System is n SSUs integrated as one storage system.
type System struct {
	Unit  SSU
	Count int
}

// SeqBps, RandBps, Capacity, Disks, and Price aggregate linearly over
// SSUs (the point of the SSU procurement structure).
func (s System) SeqBps() float64   { return float64(s.Count) * s.Unit.SeqBps }
func (s System) RandBps() float64  { return float64(s.Count) * s.Unit.RandBps } //simlint:allow test-only-export read-only aggregate the sizing tests assert
func (s System) Capacity() float64 { return float64(s.Count) * s.Unit.Capacity }
func (s System) Disks() int        { return s.Count * s.Unit.Disks } //simlint:allow test-only-export read-only aggregate the sizing tests assert
func (s System) PriceUSD() float64 { return float64(s.Count) * s.Unit.PriceUSD }

// UnitsFor returns the SSU count needed to meet all three targets
// simultaneously.
func UnitsFor(u SSU, seqBps, randBps, capacity float64) int {
	n := 0
	need := func(target, per float64) int {
		if target <= 0 {
			return 0
		}
		k := int(target / per)
		if float64(k)*per < target {
			k++
		}
		return k
	}
	if k := need(seqBps, u.SeqBps); k > n {
		n = k
	}
	if k := need(randBps, u.RandBps); k > n {
		n = k
	}
	if k := need(capacity, u.Capacity); k > n {
		n = k
	}
	return n
}

// Requirements is the RFP target set.
type Requirements struct {
	SeqBps    float64
	RandBps   float64
	Capacity  float64
	BudgetUSD float64
}

// Spider2Requirements returns the published targets: 1 TB/s sequential,
// 240 GB/s random, 32 PB.
func Spider2Requirements() Requirements {
	return Requirements{SeqBps: 1e12, RandBps: 240e9, Capacity: 32e15, BudgetUSD: 45e6}
}

// Proposal is one vendor response: an SSU at a price, plus scored
// non-technical factors in [0, 1].
type Proposal struct {
	Vendor          string
	Unit            SSU
	Schedule        float64 // delivery schedule confidence
	PastPerformance float64
	Risk            float64 // 1 = lowest risk
	// IntegrationCost is the USD the center bears: above zero for a
	// block-storage purchase, zero for an appliance.
	IntegrationCost float64
}

// Weights for the §III-C evaluation: "technical elements, performance,
// schedule, and cost each play an integrated role".
type Weights struct {
	Performance float64
	Capacity    float64
	Cost        float64
	Schedule    float64
	Past        float64
	Risk        float64
}

// DefaultWeights mirrors a best-value evaluation.
func DefaultWeights() Weights {
	return Weights{Performance: 0.30, Capacity: 0.15, Cost: 0.25, Schedule: 0.10, Past: 0.10, Risk: 0.10}
}

// Score is one proposal's evaluation.
type Score struct {
	Proposal Proposal
	Units    int
	TotalUSD float64
	Feasible bool
	Value    float64
}

// Evaluate sizes each proposal against the requirements, computes total
// cost (units + integration), and ranks by weighted value. Infeasible
// (over-budget) proposals sort last with Feasible=false.
func Evaluate(reqs Requirements, proposals []Proposal, w Weights) []Score {
	scores := make([]Score, 0, len(proposals))
	for _, p := range proposals {
		units := UnitsFor(p.Unit, reqs.SeqBps, reqs.RandBps, reqs.Capacity)
		sys := System{Unit: p.Unit, Count: units}
		total := sys.PriceUSD() + p.IntegrationCost
		s := Score{Proposal: p, Units: units, TotalUSD: total, Feasible: total <= reqs.BudgetUSD}
		// Normalize: performance/capacity beyond requirement earn
		// diminishing credit; cost credit is budget fraction unspent.
		perf := sys.SeqBps() / reqs.SeqBps
		if perf > 1.5 {
			perf = 1.5
		}
		capRatio := sys.Capacity() / reqs.Capacity
		if capRatio > 1.5 {
			capRatio = 1.5
		}
		costCredit := 0.0
		if reqs.BudgetUSD > 0 {
			costCredit = 1 - total/reqs.BudgetUSD
			if costCredit < 0 {
				costCredit = 0
			}
		}
		s.Value = w.Performance*perf + w.Capacity*capRatio + w.Cost*costCredit +
			w.Schedule*p.Schedule + w.Past*p.PastPerformance + w.Risk*p.Risk
		scores = append(scores, s)
	}
	sort.SliceStable(scores, func(i, j int) bool {
		if scores[i].Feasible != scores[j].Feasible {
			return scores[i].Feasible
		}
		return scores[i].Value > scores[j].Value
	})
	return scores
}

// CenterModel compares the data-centric center-wide PFS against
// machine-exclusive per-platform file systems for a center with the
// given compute platforms.
type Platform struct {
	MemBytes float64
	// WorkflowShareBytes is how much of this platform's output other
	// platforms consume (drives data movement in the exclusive model).
	WorkflowShareBytes float64
}

// ModelComparison is the E6 result.
type ModelComparison struct {
	DataCentricUSD            float64
	MachineExclusiveUSD       float64
	MoveHoursPerDay           float64
	AddPlatformUSDDataCentric float64
	AddPlatformUSDExclusive   float64
}

// CompareModels sizes both architectures from the same SSU and returns
// costs. dtnBps is the data-mover bandwidth available in the exclusive
// model.
func CompareModels(platforms []Platform, unit SSU, dtnBps float64) ModelComparison {
	var totalMem, moved float64
	for _, p := range platforms {
		totalMem += p.MemBytes
		moved += p.WorkflowShareBytes
	}
	var out ModelComparison
	// Data-centric: one system sized by the 30x rule over all memory.
	dcCap := CapacityTarget(totalMem, 30, 0.3)
	dcUnits := UnitsFor(unit, 0, 0, dcCap)
	out.DataCentricUSD = float64(dcUnits) * unit.PriceUSD

	// Machine-exclusive: each platform gets its own system (30x its
	// memory), plus a data-mover infrastructure charge of 10% of total.
	for _, p := range platforms {
		cap := CapacityTarget(p.MemBytes, 30, 0.3)
		units := UnitsFor(unit, 0, 0, cap)
		out.MachineExclusiveUSD += float64(units) * unit.PriceUSD
	}
	out.MachineExclusiveUSD *= 1.10
	if dtnBps > 0 {
		out.MoveHoursPerDay = moved / dtnBps / 3600
	}

	// Marginal cost of adding one more analysis cluster (1/20 of total
	// memory): data-centric rides existing margin; exclusive buys a new
	// system.
	newMem := totalMem / 20
	exUnits := UnitsFor(unit, 0, 0, CapacityTarget(newMem, 30, 0.3))
	out.AddPlatformUSDExclusive = float64(exUnits)*unit.PriceUSD*1.10 + 0.2e6
	out.AddPlatformUSDDataCentric = 0 // capacity margin absorbs it
	return out
}

func (m ModelComparison) String() string {
	return fmt.Sprintf("data-centric $%.1fM vs machine-exclusive $%.1fM (+%.1f h/day of data movement)",
		m.DataCentricUSD/1e6, m.MachineExclusiveUSD/1e6, m.MoveHoursPerDay)
}
