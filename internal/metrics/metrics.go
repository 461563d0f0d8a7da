// Package metrics implements the evaluation metrics of §4.3: the ΔE%
// solution-quality percentile, ground-state success probability p★, the
// time-to-solution TTS(C_t%) formula (Eq. 2, following Rønnow et al.),
// and the distribution/percentile machinery the figures are built from.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/qubo"
)

// DeltaEPercent computes the paper's solution-quality metric for
// offset-free energies (energies measured without the constant term, so
// the ground energy E_g is strictly negative as in the paper's QUBO
// forms):
//
//	ΔE% = 100·(E_s − E_g)/|E_g| ,
//
// which equals the paper's 100·(|E_g| − |E_s|)/|E_g| on the meaningful
// range E_g ≤ E_s ≤ 0 and stays monotone for samples above zero. ΔE% = 0
// means the global optimum was found. Panics if E_g is zero (use the
// offset-stripping helpers).
func DeltaEPercent(sampleEnergy, groundEnergy float64) float64 {
	if groundEnergy == 0 {
		panic("metrics: ΔE%% undefined for zero ground energy; strip the constant offset first")
	}
	return 100 * (sampleEnergy - groundEnergy) / math.Abs(groundEnergy)
}

// DeltaEForIsing computes ΔE% for a sample of an Ising problem whose
// energies include a constant Offset (as the MIMO reductions do): both
// energies are shifted by −Offset before applying the formula, recovering
// the paper's convention where the constant ‖y‖² term is not part of the
// QUBO cost.
func DeltaEForIsing(is *qubo.Ising, sampleEnergy, groundEnergy float64) float64 {
	return DeltaEPercent(sampleEnergy-is.Offset, groundEnergy-is.Offset)
}

// SuccessProbability returns the fraction of samples whose energy is
// within tol of the ground energy — the single-execution ground-state
// probability p★ of Eq. 2.
func SuccessProbability(samples []qubo.Sample, groundEnergy, tol float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	hits := 0
	for _, s := range samples {
		if s.Energy <= groundEnergy+tol {
			hits++
		}
	}
	return float64(hits) / float64(len(samples))
}

// TTS evaluates Eq. 2: the expected time (same unit as duration) to find
// the ground state at least once with confidence ct% when one execution
// takes `duration` and succeeds with probability pstar:
//
//	TTS(C_t%) = duration · log(1 − C_t/100) / log(1 − p★).
//
// Edge cases follow the metric's semantics: p★ ≤ 0 → +Inf (never
// succeeds); p★ ≥ 1 → duration (one shot suffices); if a single
// execution already meets the confidence target the result is floored at
// one duration.
func TTS(duration, pstar, ct float64) float64 {
	if duration <= 0 {
		panic("metrics: non-positive duration")
	}
	if ct <= 0 || ct >= 100 {
		panic("metrics: confidence must lie in (0, 100)")
	}
	if pstar <= 0 {
		return math.Inf(1)
	}
	if pstar >= 1 {
		return duration
	}
	runs := math.Log(1-ct/100) / math.Log(1-pstar)
	if runs < 1 {
		runs = 1
	}
	return duration * runs
}

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation on the sorted data (NaN for empty input).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 || p > 100 {
		panic("metrics: percentile out of [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// NearestRank returns the p-th percentile (0 ≤ p ≤ 100) of already
// sorted data by the nearest-rank method: rank ⌈p·n/100⌉ clamped to
// [1, n]. It is the one latency percentile every serving surface
// reports. Empty input yields 0, not NaN, so reports marshal to JSON.
func NearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// WilsonInterval returns the 95% Wilson score confidence interval for a
// binomial proportion with k successes in n trials — the uncertainty bars
// for success probabilities.
func WilsonInterval(k, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Histogram is a fixed-width binned distribution over [Min, Max); values
// outside the range land in the first/last bin (clamped), so fractions
// always sum to 1.
type Histogram struct {
	Min, Max float64
	Counts   []int
	Total    int
}

// NewHistogram builds a histogram with bins of equal width over
// [min, max).
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins <= 0 || max <= min {
		panic("metrics: bad histogram shape")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}
}

// Add records a value. NaN is dropped (it has no bin and no meaningful
// clamp); ±Inf clamp to the edge bins like any other out-of-range value.
// Clamping happens in float space because converting NaN/±Inf (or any
// out-of-range float) to int is implementation-specific in Go.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	pos := (x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts))
	var idx int
	switch {
	case pos < 0:
		idx = 0
	case pos >= float64(len(h.Counts)):
		idx = len(h.Counts) - 1
	default:
		idx = int(pos)
	}
	h.Counts[idx]++
	h.Total++
}

// Fraction returns bin i's share of all recorded values.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*w
}

// String renders "center fraction" rows, the format the figure harnesses
// print.
func (h *Histogram) String() string {
	out := ""
	for i := range h.Counts {
		out += fmt.Sprintf("%8.2f %8.5f\n", h.BinCenter(i), h.Fraction(i))
	}
	return out
}
