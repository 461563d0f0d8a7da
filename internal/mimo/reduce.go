package mimo

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/modulation"
	"repro/internal/qubo"
)

// This file implements the ML-to-Ising reduction — the paper's reference
// [29] (QuAMax) mapping between QUBO variables and wireless symbols, which
// §4.2 applies unchanged.
//
// Derivation. After the real-valued decomposition ỹ = H̃·x̃ (linalg.
// RealDecompose), each of the 2·nt real dimensions carries a PAM amplitude
// expressible as a weighted sum of spins (modulation.SpinWeight):
//
//	x̃_d = norm · Σ_k w_k·s_{σ(d)+k} ,  s ∈ {−1,+1}
//
// so x̃ = A·s for a sparse weight matrix A. Substituting into the ML
// objective,
//
//	‖ỹ − H̃·A·s‖² = sᵀ·(AᵀGA)·s − 2·(AᵀH̃ᵀỹ)ᵀ·s + ‖ỹ‖²,  G = H̃ᵀH̃,
//
// which, since s_i² = 1 moves the diagonal of AᵀGA into the constant,
// is the Ising model
//
//	h_i = −2·c_i,  J_ij = 2·M_ij (i<j),  offset = tr(M) + ‖ỹ‖²
//
// with M = AᵀGA and c = AᵀH̃ᵀỹ. The ground-state energy of this Ising
// model equals the minimum of ‖y − H·x‖² over the constellation — zero in
// the paper's noiseless workload.

// Reduction holds the Ising form of a detection problem together with the
// spin layout needed to decode samples back into symbols.
type Reduction struct {
	Ising   *qubo.Ising
	problem *Problem
	scheme  modulation.Scheme
	nt      int
	// dimBits[d] is the spin count of real dimension d (d < nt: I of user
	// d; d >= nt: Q of user d−nt); dimOffset[d] is its first spin index.
	dimBits   []int
	dimOffset []int
}

// Reduce converts a detection problem into its exactly equivalent Ising
// model.
func Reduce(p *Problem) (*Reduction, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nt := p.Nt()
	hr, yr := linalg.RealDecompose(p.H, p.Y)
	norm := p.Scheme.Norm()

	biI := p.Scheme.BitsPerDimI()
	biQ := p.Scheme.BitsPerDimQ()
	dimBits := make([]int, 2*nt)
	dimOffset := make([]int, 2*nt)
	total := 0
	for d := 0; d < 2*nt; d++ {
		b := biI
		if d >= nt {
			b = biQ
		}
		dimBits[d] = b
		dimOffset[d] = total
		total += b
	}
	if total == 0 {
		return nil, fmt.Errorf("mimo: reduction produced no spins")
	}

	m, c := quadraticForm(hr, yr, norm, dimBits, dimOffset)
	return &Reduction{
		Ising:     isingOf(m, c, linalg.VecNormSq(yr)),
		problem:   p,
		scheme:    p.Scheme,
		nt:        nt,
		dimBits:   dimBits,
		dimOffset: dimOffset,
	}, nil
}

// quadraticForm returns M = AᵀGA, G = H̃ᵀH̃, and c = AᵀH̃ᵀỹ for the weight
// matrix A, (2·nt) × total with A[d][σ(d)+k] = norm·w_k. Each column of
// A holds one nonzero, a_i = norm·w_k at row d_i, so
//
//	M_ij = (a_i·G[d_i][d_j])·a_j,  c_i = a_i·(H̃ᵀỹ)[d_i],
//
// and neither A nor a transpose is built. G_rc sums H̃_kr·H̃_kc over k in
// ascending order, skipping H̃_kr = 0, as Matrix.Mul does; G_cr sums the
// same products in the same order (a skipped term is ±0, which leaves a
// sum that starts at +0 unchanged), so G is symmetric bit for bit and its
// upper triangle is computed once and mirrored. Every entry accumulates
// from +0 as the Transpose/Mul/MulVec chain does, so the bits are that
// chain's (TestQuadraticFormMatchesMul).
func quadraticForm(hr *linalg.Matrix, yr []float64, norm float64, dimBits, dimOffset []int) (*linalg.Matrix, []float64) {
	dims := hr.Cols
	total := dimOffset[dims-1] + dimBits[dims-1]
	// One allocation holds G (row-major), H̃ᵀỹ, the weights a_i and c.
	buf := make([]float64, dims*dims+dims+2*total)
	g, buf := buf[:dims*dims], buf[dims*dims:]
	hty, buf := buf[:dims], buf[dims:]
	a, c := buf[:total], buf[total:]
	dimOf := make([]int, total)
	for r := 0; r < dims; r++ {
		for c := r; c < dims; c++ {
			var sum float64
			for k := 0; k < hr.Rows; k++ {
				if v := hr.Data[k*dims+r]; v != 0 {
					sum += v * hr.Data[k*dims+c]
				}
			}
			g[r*dims+c], g[c*dims+r] = sum, sum
		}
		for k, y := range yr {
			hty[r] += hr.Data[k*dims+r] * y
		}
	}
	for d, b := range dimBits {
		for k := 0; k < b; k++ {
			dimOf[dimOffset[d]+k] = d
			a[dimOffset[d]+k] = norm * modulation.SpinWeight(b, k)
		}
	}
	m := linalg.NewMatrix(total, total)
	for i := 0; i < total; i++ {
		row, gi := m.Data[i*total:(i+1)*total], g[dimOf[i]*dims:(dimOf[i]+1)*dims]
		for j := range row {
			var t float64
			t += a[i] * gi[dimOf[j]]
			if t != 0 {
				row[j] += t * a[j]
			}
		}
		c[i] += a[i] * hty[dimOf[i]]
	}
	return m, c
}

// isingOf assembles the Ising model h_i = −2·c_i, J_ij = 2·M_ij (i<j),
// offset = ‖ỹ‖² + tr(M). Each pair i < j is visited once, so the
// couplings are appended rather than searched for: row i lists its
// neighbours k < i, then j > i, in ascending order, as AddCoupling
// would, in one backing array sized from the nonzero count.
func isingOf(m *linalg.Matrix, c []float64, yNormSq float64) *qubo.Ising {
	n := len(c)
	deg := make([]int, n)
	nnz := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m.At(i, j) != 0 {
				deg[i]++
				deg[j]++
				nnz += 2
			}
		}
	}
	is := qubo.NewIsing(n)
	buf := make([]qubo.Coupling, nnz)
	for i, d := range deg {
		if d > 0 {
			is.Adj[i], buf = buf[:0:d], buf[d:]
		}
	}
	is.Offset = yNormSq
	for i := 0; i < n; i++ {
		is.H[i] = -2 * c[i]
		is.Offset += m.At(i, i)
		for j := i + 1; j < n; j++ {
			if v := m.At(i, j); v != 0 {
				// M is symmetric; s_i·s_j collects M_ij + M_ji = 2·M_ij.
				is.Adj[i] = append(is.Adj[i], qubo.Coupling{To: j, J: 2 * v})
				is.Adj[j] = append(is.Adj[j], qubo.Coupling{To: i, J: 2 * v})
			}
		}
	}
	return is
}

// NumSpins returns the Ising problem size.
func (r *Reduction) NumSpins() int { return r.Ising.N }

// DecodeSpins converts a spin configuration into the nt detected symbols.
func (r *Reduction) DecodeSpins(spins []int8) []complex128 {
	if len(spins) != r.Ising.N {
		panic("mimo: DecodeSpins length mismatch")
	}
	norm := r.scheme.Norm()
	out := make([]complex128, r.nt)
	for u := 0; u < r.nt; u++ {
		iLevel := r.dimLevel(spins, u)
		qLevel := 0.0
		if r.dimBits[r.nt+u] > 0 {
			qLevel = r.dimLevel(spins, r.nt+u)
		}
		out[u] = complex(iLevel*norm, qLevel*norm)
	}
	return out
}

func (r *Reduction) dimLevel(spins []int8, d int) float64 {
	return modulation.SpinsToLevel(r.dimSpins(spins, d))
}

// EncodeSymbols converts a symbol vector into the spin configuration that
// represents it — e.g. the transmitted symbols into the ground state of a
// noiseless instance, or a classical detector's output into a reverse-
// annealing initial state.
func (r *Reduction) EncodeSymbols(symbols []complex128) ([]int8, error) {
	if len(symbols) != r.nt {
		return nil, fmt.Errorf("mimo: EncodeSymbols got %d symbols for %d users", len(symbols), r.nt)
	}
	norm := r.scheme.Norm()
	spins := make([]int8, r.Ising.N)
	for u, x := range symbols {
		modulation.LevelToSpinsInto(r.dimSpins(spins, u), real(x)/norm)
		if r.dimBits[r.nt+u] > 0 {
			modulation.LevelToSpinsInto(r.dimSpins(spins, r.nt+u), imag(x)/norm)
		}
	}
	return spins, nil
}

// dimSpins returns the spins of real dimension d.
func (r *Reduction) dimSpins(spins []int8, d int) []int8 {
	return spins[r.dimOffset[d] : r.dimOffset[d]+r.dimBits[d]]
}

// Scheme returns the modulation the reduction was built for.
func (r *Reduction) Scheme() modulation.Scheme { return r.scheme }

// Users returns the number of users nt.
func (r *Reduction) Users() int { return r.nt }

// Problem returns the detection problem the reduction was built from.
func (r *Reduction) Problem() *Problem { return r.problem }
