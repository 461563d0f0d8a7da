package qubo

import (
	"math"

	"repro/internal/metropolis"
	"repro/internal/rng"
)

// This file provides the classical heuristic solvers used as baselines and
// as candidate "application-specific classical modules" the paper's
// conclusion proposes combining with reverse annealing: steepest-descent
// local search, classical simulated annealing, tabu search, and random
// sampling.

// SteepestDescent greedily flips the spin with the most negative energy
// delta until no flip improves, starting from the given spins (which are
// not modified). It returns the local minimum reached.
func SteepestDescent(is *Ising, start []int8) Sample {
	spins := append([]int8(nil), start...)
	energy := is.Energy(spins)
	// Maintain local fields for O(deg) updates per flip.
	field := make([]float64, is.N)
	for i := range field {
		field[i] = is.LocalField(spins, i)
	}
	for {
		bestI, bestDelta := -1, 0.0
		for i := 0; i < is.N; i++ {
			delta := -2 * float64(spins[i]) * field[i]
			if delta < bestDelta-1e-15 {
				bestDelta, bestI = delta, i
			}
		}
		if bestI < 0 {
			return Sample{Spins: spins, Energy: energy}
		}
		spins[bestI] = -spins[bestI]
		energy += bestDelta
		for _, c := range is.Adj[bestI] {
			field[c.To] += 2 * c.J * float64(spins[bestI])
		}
	}
}

// SAOptions configures classical simulated annealing.
type SAOptions struct {
	Sweeps    int     // full-lattice sweeps (default 1000)
	BetaStart float64 // initial inverse temperature (default 0.1)
	BetaEnd   float64 // final inverse temperature (default 10)
}

func (o SAOptions) withDefaults() SAOptions {
	if o.Sweeps <= 0 {
		o.Sweeps = 1000
	}
	if o.BetaStart <= 0 {
		o.BetaStart = 0.1
	}
	if o.BetaEnd <= 0 {
		o.BetaEnd = 10
	}
	return o
}

// WithDefaults returns o with every unset field at the value
// SimulatedAnnealing would use, so a re-implementation of the same
// dynamics (annealer.SimulatedAnnealingGroup) resolves options exactly
// as the one-read path does.
func (o SAOptions) WithDefaults() SAOptions { return o.withDefaults() }

// SimulatedAnnealing runs single-spin-flip Metropolis dynamics with a
// geometric inverse-temperature ramp and returns the best configuration
// seen. It starts from a uniformly random state.
func SimulatedAnnealing(is *Ising, r *rng.Source, opts SAOptions) Sample {
	opts = opts.withDefaults()
	spins := make([]int8, is.N)
	for i := range spins {
		spins[i] = r.Spin()
	}
	return SimulatedAnnealingFrom(is, r, spins, opts)
}

// SimulatedAnnealingFrom is SimulatedAnnealing from an explicit initial
// state (not modified).
func SimulatedAnnealingFrom(is *Ising, r *rng.Source, start []int8, opts SAOptions) Sample {
	opts = opts.withDefaults()
	spins := append([]int8(nil), start...)
	energy := is.Energy(spins)
	best := append([]int8(nil), spins...)
	bestEnergy := energy

	field := make([]float64, is.N)
	for i := range field {
		field[i] = is.LocalField(spins, i)
	}
	ratio := 1.0
	if opts.Sweeps > 1 {
		ratio = math.Pow(opts.BetaEnd/opts.BetaStart, 1/float64(opts.Sweeps-1))
	}
	beta := opts.BetaStart
	for sweep := 0; sweep < opts.Sweeps; sweep++ {
		for k := 0; k < is.N; k++ {
			i := r.Intn(is.N)
			delta := -2 * float64(spins[i]) * field[i]
			if delta <= 0 || metropolis.Accept(r.Float64(), beta*delta) {
				spins[i] = -spins[i]
				energy += delta
				for _, c := range is.Adj[i] {
					field[c.To] += 2 * c.J * float64(spins[i])
				}
				if energy < bestEnergy {
					bestEnergy = energy
					copy(best, spins)
				}
			}
		}
		beta *= ratio
	}
	return Sample{Spins: best, Energy: bestEnergy}
}

// TabuOptions configures tabu search.
type TabuOptions struct {
	Iterations int // flip moves to perform (default 50·N)
	Tenure     int // iterations a flipped variable stays tabu (default N/4+1)
}

// TabuSearch runs single-flip tabu search over an Ising model: each
// iteration flips the non-tabu spin with the lowest resulting energy
// (aspiration: a tabu move is allowed if it would beat the incumbent).
// It starts from a random state and returns the best configuration seen.
func TabuSearch(is *Ising, r *rng.Source, opts TabuOptions) Sample {
	if opts.Iterations <= 0 {
		opts.Iterations = 50 * is.N
	}
	if opts.Tenure <= 0 {
		opts.Tenure = is.N/4 + 1
	}
	spins := make([]int8, is.N)
	for i := range spins {
		spins[i] = r.Spin()
	}
	energy := is.Energy(spins)
	best := append([]int8(nil), spins...)
	bestEnergy := energy

	field := make([]float64, is.N)
	for i := range field {
		field[i] = is.LocalField(spins, i)
	}
	tabuUntil := make([]int, is.N)
	for it := 1; it <= opts.Iterations; it++ {
		bestI := -1
		bestDelta := math.Inf(1)
		for i := 0; i < is.N; i++ {
			delta := -2 * float64(spins[i]) * field[i]
			if tabuUntil[i] >= it && energy+delta >= bestEnergy {
				continue // tabu and no aspiration
			}
			if delta < bestDelta {
				bestDelta, bestI = delta, i
			}
		}
		if bestI < 0 {
			// Everything tabu with no aspiration: flip a random spin to
			// keep moving.
			bestI = r.Intn(is.N)
			bestDelta = -2 * float64(spins[bestI]) * field[bestI]
		}
		spins[bestI] = -spins[bestI]
		energy += bestDelta
		tabuUntil[bestI] = it + opts.Tenure
		for _, c := range is.Adj[bestI] {
			field[c.To] += 2 * c.J * float64(spins[bestI])
		}
		if energy < bestEnergy {
			bestEnergy = energy
			copy(best, spins)
		}
	}
	return Sample{Spins: best, Energy: bestEnergy}
}

// RandomSample draws a uniformly random spin configuration — the behaviour
// of measuring the fully quantum state at s = 0 (Figure 5's caption) and
// the "randomly picked initial state" of Figure 6 (center).
func RandomSample(is *Ising, r *rng.Source) Sample {
	spins := make([]int8, is.N)
	for i := range spins {
		spins[i] = r.Spin()
	}
	return Sample{Spins: spins, Energy: is.Energy(spins)}
}

// MultiStartGroundEstimate estimates the ground state of a problem too
// large for exhaustive search by taking the best of `starts` runs each of
// tabu search and simulated annealing followed by steepest descent. Used
// to establish E_g witnesses for large instances.
func MultiStartGroundEstimate(is *Ising, r *rng.Source, starts int) Sample {
	if starts <= 0 {
		starts = 8
	}
	best := RandomSample(is, r)
	for k := 0; k < starts; k++ {
		t := TabuSearch(is, r.Split(uint64(2*k)), TabuOptions{})
		if t.Energy < best.Energy {
			best = t
		}
		s := SimulatedAnnealing(is, r.Split(uint64(2*k+1)), SAOptions{})
		s = SteepestDescent(is, s.Spins)
		if s.Energy < best.Energy {
			best = s
		}
	}
	return best
}
