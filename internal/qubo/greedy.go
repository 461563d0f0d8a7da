package qubo

import (
	"math"
	"sort"
)

// This file implements the Greedy Search (GS) classical module of §4.1(1):
// a deterministic linear-complexity QUBO solver used to produce the
// candidate solution that initializes reverse annealing.
//
// Following the paper, bits are sorted by the magnitude of
//
//	|½·Q_ii + ¼·Σ_{k<i} Q_ki + ¼·Σ_{k>i} Q_ik| ,
//
// which (footnote 2) is exactly |h_i|, the absolute diagonal of the Ising
// form. Each bit, taken in that order, is assigned the value that
// minimizes the energy of the partial assignment built so far: the first
// bit gets q_i = 0 when its magnitude term is positive and 1 otherwise,
// and subsequent bits are set by the sign of their effective field given
// the already-fixed bits.
//
// The paper's text sorts ascending while its cited greedy-descent
// reference (Venturelli & Kondratyev 2018) fixes the strongest-field spin
// first, i.e. descending. Both orders are provided; descending is the
// default used by the hybrid prototype because committing the most-
// certain bits first is what makes the later conditional assignments
// meaningful.

// GreedyOrder selects the bit-commitment order for GreedySearchIsing.
type GreedyOrder int

const (
	// OrderDescending commits bits from strongest |h_i| to weakest.
	OrderDescending GreedyOrder = iota
	// OrderAscending commits bits from weakest |h_i| to strongest, the
	// paper's literal prose.
	OrderAscending
)

// GreedySearchIsing runs the GS module on an Ising model and returns the
// chosen spins. It is deterministic and runs in O(N²) time (O(N·deg)
// field updates after an O(N log N) sort — "linear complexity" in the
// paper's sense of a single pass over the variables).
func GreedySearchIsing(is *Ising, order GreedyOrder) []int8 {
	n := is.N
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ma, mb := math.Abs(is.H[idx[a]]), math.Abs(is.H[idx[b]])
		if order == OrderAscending {
			return ma < mb
		}
		return ma > mb
	})

	spins := make([]int8, n)
	set := make([]bool, n)
	// field[i] accumulates h_i + Σ_{j set} J_ij·s_j as bits are committed.
	field := append([]float64(nil), is.H...)
	for _, i := range idx {
		// Choose the spin value minimizing the partial energy: the terms
		// involving s_i among set variables total field[i]·s_i, minimized
		// by s_i = −sign(field[i]). Ties resolve to +1 (q_i = 1), matching
		// the paper's "0 if positive and 1 otherwise" on the first bit.
		if field[i] > 0 {
			spins[i] = -1
		} else {
			spins[i] = 1
		}
		set[i] = true
		for _, c := range is.Adj[i] {
			if !set[c.To] {
				field[c.To] += c.J * float64(spins[i])
			}
		}
	}
	return spins
}
