// Package qubo implements Quadratic Unconstrained Binary Optimization and
// Ising problem forms, conversions between them, the classical pre-
// processing schemes from §3.1 of the paper (variable fixing and soft-
// information constraints), and the classical heuristic solvers (greedy
// search, steepest descent, simulated annealing, tabu search, exhaustive
// enumeration) that serve as the hybrid design's classical modules and as
// baselines.
//
// Conventions. A QUBO is the cost E(q) = Σ_{i≤j} Q_ij·q_i·q_j + offset over
// bits q ∈ {0,1}^N with Q upper triangular (Eq. 1 of the paper, plus an
// explicit constant offset so that reductions and conversions preserve
// energies exactly). An Ising model is E(s) = Σ_i h_i·s_i +
// Σ_{i<j} J_ij·s_i·s_j + offset over spins s ∈ {−1,+1}^N. The two are
// related by q_i = (1+s_i)/2, and all conversions in this package preserve
// the energy of every configuration exactly, not just the argmin.
package qubo

import (
	"fmt"
	"math"
)

// QUBO is an upper-triangular quadratic form over binary variables.
type QUBO struct {
	n      int
	coeff  []float64 // packed upper triangle, see idx
	Offset float64   // constant term added to every energy
}

// New returns an all-zero QUBO over n binary variables.
func New(n int) *QUBO {
	if n < 0 {
		panic("qubo: negative size")
	}
	return &QUBO{n: n, coeff: make([]float64, n*(n+1)/2)}
}

// idx maps (i, j) with i <= j to the packed upper-triangle index.
func (q *QUBO) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	if i < 0 || j >= q.n {
		panic(fmt.Sprintf("qubo: index (%d,%d) out of range for n=%d", i, j, q.n))
	}
	// Row i starts after rows 0..i-1, which hold n, n-1, ..., n-i+1 entries.
	return i*q.n - i*(i-1)/2 + (j - i)
}

// Coeff returns Q_ij; the order of i and j does not matter.
func (q *QUBO) Coeff(i, j int) float64 { return q.coeff[q.idx(i, j)] }

// SetCoeff assigns Q_ij.
func (q *QUBO) SetCoeff(i, j int, v float64) { q.coeff[q.idx(i, j)] = v }

// AddCoeff adds v to Q_ij.
func (q *QUBO) AddCoeff(i, j int, v float64) { q.coeff[q.idx(i, j)] += v }

// Clone returns a deep copy.
func (q *QUBO) Clone() *QUBO {
	out := New(q.n)
	copy(out.coeff, q.coeff)
	out.Offset = q.Offset
	return out
}

// Energy evaluates E(q) = Σ_{i≤j} Q_ij·q_i·q_j + offset for bits in {0,1}.
func (q *QUBO) Energy(bits []int8) float64 {
	if len(bits) != q.n {
		panic("qubo: Energy with wrong-length assignment")
	}
	e := q.Offset
	k := 0
	for i := 0; i < q.n; i++ {
		if bits[i] == 0 {
			k += q.n - i
			continue
		}
		for j := i; j < q.n; j++ {
			if bits[j] != 0 {
				e += q.coeff[k]
			}
			k++
		}
	}
	return e
}

// FlipDelta returns the energy change from flipping bit i in the given
// assignment, without mutating it: E(flip_i(q)) − E(q).
func (q *QUBO) FlipDelta(bits []int8, i int) float64 {
	if len(bits) != q.n {
		panic("qubo: FlipDelta with wrong-length assignment")
	}
	// The terms involving q_i are Q_ii·q_i + Σ_{j≠i} Q_ij·q_i·q_j, so the
	// delta is (q_i' − q_i)·(Q_ii + Σ_{j≠i} Q_ij·q_j).
	sum := q.Coeff(i, i)
	for j := 0; j < q.n; j++ {
		if j != i && bits[j] != 0 {
			sum += q.Coeff(i, j)
		}
	}
	if bits[i] != 0 {
		return -sum
	}
	return sum
}

// ToIsing converts to the exactly energy-equivalent Ising model under the
// substitution q_i = (1 + s_i)/2.
func (q *QUBO) ToIsing() *Ising {
	is := NewIsing(q.n)
	is.Offset = q.Offset
	for i := 0; i < q.n; i++ {
		d := q.Coeff(i, i)
		is.H[i] += d / 2
		is.Offset += d / 2
		for j := i + 1; j < q.n; j++ {
			c := q.Coeff(i, j)
			if c == 0 {
				continue
			}
			is.AddCoupling(i, j, c/4)
			is.H[i] += c / 4
			is.H[j] += c / 4
			is.Offset += c / 4
		}
	}
	return is
}

// BitsToSpins maps {0,1} to {−1,+1}.
func BitsToSpins(bits []int8) []int8 {
	s := make([]int8, len(bits))
	for i, b := range bits {
		if b != 0 {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

// SpinsToBits maps {−1,+1} to {0,1}.
func SpinsToBits(spins []int8) []int8 {
	b := make([]int8, len(spins))
	for i, s := range spins {
		if s > 0 {
			b[i] = 1
		}
	}
	return b
}

// Solution is a solver's answer in QUBO (bit) space.
type Solution struct {
	Bits   []int8
	Energy float64
}

// Validate checks structural sanity of a QUBO (finite coefficients).
func (q *QUBO) Validate() error {
	for k, v := range q.coeff {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("qubo: non-finite coefficient at packed index %d", k)
		}
	}
	if math.IsNaN(q.Offset) || math.IsInf(q.Offset, 0) {
		return fmt.Errorf("qubo: non-finite offset")
	}
	return nil
}
