package qubo

import (
	"fmt"
	"math"
	"math/bits"
)

// MaxExhaustiveVars bounds the exhaustive solver; 2^30 incremental
// evaluations is the practical limit for test-time ground-truth
// computation.
const MaxExhaustiveVars = 30

// Exhaustive finds the exact global optimum of a QUBO by Gray-code
// enumeration of all 2^N assignments with O(N) incremental energy updates
// per step. It returns an error for problems larger than
// MaxExhaustiveVars.
func Exhaustive(q *QUBO) (Solution, error) {
	if q.n > MaxExhaustiveVars {
		return Solution{}, fmt.Errorf("qubo: exhaustive search limited to %d variables, got %d", MaxExhaustiveVars, q.n)
	}
	bits := make([]int8, q.n)
	best := append([]int8(nil), bits...)
	energy := q.Energy(bits)
	bestEnergy := energy
	if q.n == 0 {
		return Solution{Bits: best, Energy: bestEnergy}, nil
	}
	// Standard-Gray-code walk: on step k (1-based), flip bit trailing-zeros(k).
	total := uint64(1) << uint(q.n)
	for k := uint64(1); k < total; k++ {
		i := trailingZeros(k)
		energy += q.FlipDelta(bits, i)
		bits[i] ^= 1
		if energy < bestEnergy {
			bestEnergy = energy
			copy(best, bits)
		}
	}
	return Solution{Bits: best, Energy: bestEnergy}, nil
}

// ExhaustiveIsing finds the exact global optimum of an Ising model.
func ExhaustiveIsing(is *Ising) (Sample, error) {
	if is.N > MaxExhaustiveVars {
		return Sample{}, fmt.Errorf("qubo: exhaustive search limited to %d spins, got %d", MaxExhaustiveVars, is.N)
	}
	spins := make([]int8, is.N)
	for i := range spins {
		spins[i] = -1
	}
	best := append([]int8(nil), spins...)
	energy := is.Energy(spins)
	bestEnergy := energy
	if is.N == 0 {
		return Sample{Spins: best, Energy: bestEnergy}, nil
	}
	total := uint64(1) << uint(is.N)
	for k := uint64(1); k < total; k++ {
		i := trailingZeros(k)
		energy += is.FlipDelta(spins, i)
		spins[i] = -spins[i]
		if energy < bestEnergy {
			bestEnergy = energy
			copy(best, spins)
		}
	}
	return Sample{Spins: best, Energy: bestEnergy}, nil
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// BruteForceEnergyRange returns the minimum and maximum energies of a
// small QUBO, used to normalize ΔE% denominators in tests.
func BruteForceEnergyRange(q *QUBO) (min, max float64, err error) {
	if q.n > MaxExhaustiveVars {
		return 0, 0, fmt.Errorf("qubo: exhaustive search limited to %d variables, got %d", MaxExhaustiveVars, q.n)
	}
	bits := make([]int8, q.n)
	energy := q.Energy(bits)
	min, max = energy, energy
	total := uint64(1) << uint(q.n)
	for k := uint64(1); k < total; k++ {
		i := trailingZeros(k)
		energy += q.FlipDelta(bits, i)
		bits[i] ^= 1
		min = math.Min(min, energy)
		max = math.Max(max, energy)
	}
	return min, max, nil
}
