package mimo

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
	"repro/internal/modulation"
)

// This file implements the tree-search detectors: the Schnorr–Euchner
// depth-first sphere decoder (exact ML at data-dependent cost), the
// K-best breadth-first decoder (paper reference [17]), and the fixed-
// complexity sphere decoder FCSD (paper reference [4]). The conclusion
// names K-best and FCSD as tunable-complexity classical modules whose
// output quality Δ𝐸_IS% can be traded against parallelizable compute.
//
// All three search the real-valued lattice: after RealDecompose, the
// problem is min ‖ỹ − H̃·x̃‖² with x̃_d ranging over the scheme's
// normalized PAM levels (the Q dimensions of BPSK are pinned to 0). With
// G = H̃ᵀH̃ = RᵀR (Cholesky) and x_LS = G⁻¹H̃ᵀỹ the objective decomposes
// as const + ‖R·(x̃ − x_LS)‖², which a triangular tree search explores
// dimension by dimension from the last row of R upward.

// realLattice is the shared triangular-search preparation.
type realLattice struct {
	r      *linalg.Matrix // upper-triangular Cholesky factor of H̃ᵀH̃
	center []float64      // unconstrained LS solution x_LS
	levels [][]float64    // candidate normalized amplitudes per dimension
	nt     int
	scheme modulation.Scheme
}

func newRealLattice(p *Problem) (*realLattice, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	hr, yr := linalg.RealDecompose(p.H, p.Y)
	g := hr.Transpose().Mul(hr)
	l, err := g.Cholesky()
	if err != nil {
		return nil, fmt.Errorf("mimo: channel Gram matrix not positive definite (rank-deficient channel): %w", err)
	}
	r := l.Transpose()
	ginv, err := g.Inverse()
	if err != nil {
		return nil, fmt.Errorf("mimo: %w", err)
	}
	center := ginv.MulVec(hr.Transpose().MulVec(yr))

	nt := p.Nt()
	norm := p.Scheme.Norm()
	levels := make([][]float64, 2*nt)
	iLevels := scaled(modulation.Levels(p.Scheme.BitsPerDimI()), norm)
	var qLevels []float64
	if b := p.Scheme.BitsPerDimQ(); b > 0 {
		qLevels = scaled(modulation.Levels(b), norm)
	} else {
		qLevels = []float64{0}
	}
	for d := 0; d < nt; d++ {
		levels[d] = iLevels
		levels[nt+d] = qLevels
	}
	return &realLattice{r: r, center: center, levels: levels, nt: nt, scheme: p.Scheme}, nil
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// conditionalCenter returns the value of dimension d that would zero the
// residual given already-fixed dimensions above d: x_LS[d] −
// Σ_{j>d} R_dj·(x_j − x_LS[j]) / R_dd.
func (rl *realLattice) conditionalCenter(d int, x []float64) float64 {
	n := len(rl.center)
	sum := 0.0
	for j := d + 1; j < n; j++ {
		sum += rl.r.At(d, j) * (x[j] - rl.center[j])
	}
	return rl.center[d] - sum/rl.r.At(d, d)
}

// branchCost returns the added squared distance of choosing value v at
// dimension d given the conditional center c: (R_dd·(v − c))².
func (rl *realLattice) branchCost(d int, v, c float64) float64 {
	t := rl.r.At(d, d) * (v - c)
	return t * t
}

// symbols assembles the complex symbol vector from a real lattice point.
func (rl *realLattice) symbols(x []float64) []complex128 {
	out := make([]complex128, rl.nt)
	for u := 0; u < rl.nt; u++ {
		out[u] = complex(x[u], x[rl.nt+u])
	}
	return out
}

// SphereDecoder is the Schnorr–Euchner depth-first sphere decoder. It is
// an exact ML detector: it returns the same answer as exhaustive ML at a
// (typically far smaller, but worst-case exponential) data-dependent
// cost. The search starts from an infinite pruning radius.
type SphereDecoder struct{}

// Name implements Detector.
func (SphereDecoder) Name() string { return "sd" }

// Detect implements Detector.
func (SphereDecoder) Detect(p *Problem) ([]complex128, error) {
	rl, err := newRealLattice(p)
	if err != nil {
		return nil, err
	}
	n := len(rl.center)
	x := make([]float64, n)
	best := make([]float64, n)
	bestCost := math.Inf(1)
	found := false

	var descend func(dim int, partial float64)
	descend = func(dim int, partial float64) {
		if dim < 0 {
			if partial < bestCost {
				bestCost = partial
				copy(best, x)
				found = true
			}
			return
		}
		c := rl.conditionalCenter(dim, x)
		// Schnorr–Euchner: try levels in increasing distance from the
		// conditional center so the first leaf is already good and later
		// pruning is tight.
		order := enumerateByDistance(rl.levels[dim], c)
		for _, v := range order {
			cost := partial + rl.branchCost(dim, v, c)
			if cost >= bestCost {
				// Levels are in increasing branch cost: all further
				// candidates at this dimension are at least as bad.
				break
			}
			x[dim] = v
			descend(dim-1, cost)
		}
	}
	descend(n-1, 0)
	if !found {
		return nil, fmt.Errorf("mimo: sphere decoder found no lattice point")
	}
	return rl.symbols(best), nil
}

// enumerateByDistance returns the levels sorted by |level − center|.
func enumerateByDistance(levels []float64, center float64) []float64 {
	out := append([]float64(nil), levels...)
	sort.Slice(out, func(a, b int) bool {
		return math.Abs(out[a]-center) < math.Abs(out[b]-center)
	})
	return out
}

// KBest is the breadth-first K-best sphere decoder [17]: at each tree
// level it keeps the K partial paths with the lowest accumulated cost.
// K trades accuracy against a fixed, parallelizable workload; K ≥ L^n
// reduces to exact ML.
type KBest struct {
	K int
}

// Name implements Detector.
func (KBest) Name() string { return "kbest" }

// Detect implements Detector.
func (d KBest) Detect(p *Problem) ([]complex128, error) {
	if d.K <= 0 {
		return nil, fmt.Errorf("mimo: K-best requires K >= 1, got %d", d.K)
	}
	rl, err := newRealLattice(p)
	if err != nil {
		return nil, err
	}
	n := len(rl.center)
	type path struct {
		x    []float64 // filled from dimension n−1 down
		cost float64
	}
	paths := []path{{x: make([]float64, n)}}
	for dim := n - 1; dim >= 0; dim-- {
		var next []path
		for _, pth := range paths {
			c := rl.conditionalCenter(dim, pth.x)
			for _, v := range rl.levels[dim] {
				nx := append([]float64(nil), pth.x...)
				nx[dim] = v
				next = append(next, path{x: nx, cost: pth.cost + rl.branchCost(dim, v, c)})
			}
		}
		sort.Slice(next, func(a, b int) bool { return next[a].cost < next[b].cost })
		if len(next) > d.K {
			next = next[:d.K]
		}
		paths = next
	}
	return rl.symbols(paths[0].x), nil
}

// FCSD is the fixed-complexity sphere decoder [4]: it fully enumerates
// the first FullExpansion tree levels and completes each branch by
// successive interference cancellation (slicing to the nearest level),
// giving a constant, fully parallelizable workload of L^FullExpansion
// branches.
type FCSD struct {
	FullExpansion int
}

// Name implements Detector.
func (FCSD) Name() string { return "fcsd" }

// Detect implements Detector.
func (d FCSD) Detect(p *Problem) ([]complex128, error) {
	rl, err := newRealLattice(p)
	if err != nil {
		return nil, err
	}
	n := len(rl.center)
	rho := d.FullExpansion
	if rho < 0 {
		return nil, fmt.Errorf("mimo: FCSD FullExpansion must be >= 0")
	}
	if rho > n {
		rho = n
	}
	x := make([]float64, n)
	best := make([]float64, n)
	bestCost := math.Inf(1)

	// complete finishes a branch below the fully-expanded region by SIC.
	complete := func(partial float64) float64 {
		cost := partial
		for dim := n - 1 - rho; dim >= 0; dim-- {
			c := rl.conditionalCenter(dim, x)
			v := nearestOf(rl.levels[dim], c)
			x[dim] = v
			cost += rl.branchCost(dim, v, c)
		}
		return cost
	}

	var expand func(dim int, partial float64)
	expand = func(dim int, partial float64) {
		if dim < n-rho {
			if cost := complete(partial); cost < bestCost {
				bestCost = cost
				copy(best, x)
			}
			return
		}
		c := rl.conditionalCenter(dim, x)
		for _, v := range rl.levels[dim] {
			x[dim] = v
			expand(dim-1, partial+rl.branchCost(dim, v, c))
		}
	}
	expand(n-1, 0)
	return rl.symbols(best), nil
}

func nearestOf(levels []float64, c float64) float64 {
	best, bd := levels[0], math.Abs(levels[0]-c)
	for _, v := range levels[1:] {
		if d := math.Abs(v - c); d < bd {
			best, bd = v, d
		}
	}
	return best
}
