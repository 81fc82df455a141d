package campaign

import (
	"math"
	"sort"
)

// Paired accumulates a common-random-numbers head-to-head: the same
// metric observed under two configurations (base and other) on
// scenarios generated from the same seed, paired by scenario index. Because both cells replay bit-identical failure draws, the
// per-scenario deltas cancel the scenario-to-scenario variance and the
// comparison's confidence interval shrinks far below what two
// independent campaigns of the same budget achieve — the classic
// common-random-numbers variance reduction. Memory is O(n): Paired is a head-to-head
// reporting tool for sweep cells, not a streaming aggregate.
type Paired struct {
	base, other []float64
	seenB, seen []bool
}

// NewPaired sizes the accumulator for scenario indices [0, n).
func NewPaired(n int) *Paired {
	return &Paired{
		base:  make([]float64, n),
		other: make([]float64, n),
		seenB: make([]bool, n),
		seen:  make([]bool, n),
	}
}

// ObserveBase records the base cell's metric for scenario i. Out-of-
// range indices are ignored.
func (p *Paired) ObserveBase(i int, v float64) {
	if i >= 0 && i < len(p.base) {
		p.base[i], p.seenB[i] = v, true
	}
}

// ObserveOther records the other cell's metric for scenario i.
func (p *Paired) ObserveOther(i int, v float64) {
	if i >= 0 && i < len(p.other) {
		p.other[i], p.seen[i] = v, true
	}
}

// PairedSummary reports the paired-difference statistics of a
// head-to-head: deltas are other − base, so a negative MeanDelta means
// the other cell improved on the base. Half-widths are 95% two-sided.
type PairedSummary struct {
	// N is the number of scenario indices observed by both cells.
	N int `json:"n"`
	// MeanDelta is the mean per-scenario delta, with the paired-t CI
	// half-width MeanCI.
	MeanDelta float64 `json:"mean_delta"`
	MeanCI    float64 `json:"mean_delta_ci"`
	// DeltaP50/DeltaP95 are nearest-rank quantiles of the per-scenario
	// delta distribution; DeltaP95CI is the distribution-free
	// order-statistic CI half-width of the p95 delta.
	DeltaP50   float64 `json:"delta_p50"`
	DeltaP95   float64 `json:"delta_p95"`
	DeltaP95CI float64 `json:"delta_p95_ci"`
}

// Summary computes the paired statistics over the scenarios both cells
// observed. The zero PairedSummary is returned when no pair completed.
func (p *Paired) Summary() PairedSummary {
	var deltas []float64
	for i := range p.base {
		if p.seenB[i] && p.seen[i] {
			deltas = append(deltas, p.other[i]-p.base[i])
		}
	}
	if len(deltas) == 0 {
		return PairedSummary{}
	}
	n := len(deltas)
	var sum float64
	for _, d := range deltas {
		sum += d
	}
	mean := sum / float64(n)
	var ss float64
	for _, d := range deltas {
		ss += (d - mean) * (d - mean)
	}
	out := PairedSummary{N: n, MeanDelta: mean}
	if n > 1 {
		sd := math.Sqrt(ss / float64(n-1))
		out.MeanCI = stopZ * sd / math.Sqrt(float64(n))
	}
	sort.Float64s(deltas)
	pick := func(q float64) float64 {
		i := int(math.Ceil(q*float64(n))) - 1
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return deltas[i]
	}
	out.DeltaP50 = pick(0.50)
	out.DeltaP95 = pick(0.95)
	out.DeltaP95CI = quantileCIHalfWidth(func(q float64) float64 { return pick(q) }, 0.95, float64(n))
	return out
}
