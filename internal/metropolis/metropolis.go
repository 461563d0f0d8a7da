// Package metropolis decides the Metropolis acceptance test u < exp(−x)
// exactly, without evaluating exp on almost every draw. It is shared by
// the annealer's engines (SVMC, PIMC, and the AVX2 SVMC kernel, which
// gathers from Bounds) and by qubo's simulated annealing and parallel
// tempering.
//
// The test consumes most of a sweep's time when evaluated with math.Exp
// per uphill proposal. But the dynamics only need the BOOLEAN, and exp
// is monotone: a coarse table of exp at grid points brackets exp(−x)
// between rigorous bounds, so almost every draw resolves against the
// bracket with two compares. Only draws landing inside the bracket — a
// few percent, the bracket being ~3% of the local value — fall back to
// math.Exp, so the outcome is bit-identical to evaluating math.Exp every
// time. The tail rule assumes u is an rng.Source Float64 draw: a
// multiple of 2⁻⁵³ in [0, 1).
package metropolis

import "math"

const (
	// GridStep is the bracket resolution: 32 slots per unit of x.
	GridStep = 32
	// GridMax covers x < 40; beyond it exp(−x) < 4.3e−18, smaller
	// than the smallest nonzero Float64() draw (2⁻⁵³ ≈ 1.1e−16).
	GridMax = 40 * GridStep
)

// Bounds interleaves the bracket for slot k at [2k, 2k+1]:
// Bounds[2k] ≥ exp(−x) for all x ≥ k/32 and Bounds[2k+1] ≤ exp(−x)
// for all x ≤ (k+1)/32, so one acceptance test touches one cache line.
// The 1e−9 margins dwarf every rounding error in the table construction
// and the x·32 slot index. Read-only after init.
var Bounds [2 * (GridMax + 1)]float64

func init() {
	for k := 0; k <= GridMax; k++ {
		Bounds[2*k] = math.Exp(-float64(k)/GridStep) * (1 + 1e-9)
		Bounds[2*k+1] = math.Exp(-float64(k+1)/GridStep) * (1 - 1e-9)
	}
}

// Bracket resolves u < exp(−x) against the bracket alone: +1 means
// accept, −1 reject, 0 undecided (the draw landed inside the bracket) —
// undecided must be settled by Exact. It contains no calls, so it
// inlines into the callers' proposal loops. Inside the table it takes
// both compares as flags rather than branches (the slot's lower bound
// is below its upper, so at most one holds): the verdict is a coin flip
// no branch predictor learns, and a caller that turns it into masks,
// as the SVMC Go step does, then branches on nothing.
//
// Past the table (x ≥ 40, up to one rounding of x·32) exp(−x) < 4.3e−18
// is strictly below 2⁻⁵³, so every u ≥ 2⁻⁵³ rejects without touching the
// table — this is the frozen tail of an anneal, where uphill costs
// dwarf the temperature and an unconditional math.Exp fallback would
// burn ~20 ns per proposal. Since Float64() draws are multiples of
// 2⁻⁵³, the only draw the tail cannot settle is u == 0 (probability
// 2⁻⁵³): whether it accepts depends on whether exp(−x) has underflowed
// to exactly 0, which the exact comparison gets right.
func Bracket(u, x float64) int32 {
	k := uint(x * GridStep)
	if k >= GridMax {
		if u >= 0x1p-53 {
			return -1
		}
		return 0
	}
	var v int32
	if u < Bounds[2*k+1] {
		v = 1
	}
	if u >= Bounds[2*k] {
		v = -1
	}
	return v
}

// Accept reports u < exp(−x) for x > 0, bit-identically to computing
// math.Exp(−x) — the bracket only short-circuits decisions the exact
// comparison could not decide differently. Its call to Exact puts it
// over the inlining budget, so a hot loop that must not pay a call per
// uphill draw inlines Bracket and calls Exact only when it returns 0.
func Accept(u, x float64) bool {
	v := Bracket(u, x)
	return v > 0 || (v == 0 && Exact(u, x))
}

// Exact is the math.Exp fallback. It also covers x ≥ 40 directly:
// there exp(−x) is smaller than the smallest nonzero Float64() draw, so
// u < exp(−x) is false for every u except u == 0, which the comparison
// itself gets right (including after exp underflows to 0). Kept out of
// line: its callers reach it only for the rare undecided draw.
//
//go:noinline
func Exact(u, x float64) bool {
	return u < math.Exp(-x)
}
