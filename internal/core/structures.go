package core

import (
	"fmt"

	"repro/internal/annealer"
	"repro/internal/mimo"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// This file implements the remaining coordination structures of Figure 1
// beyond the pre-processing prototype: post-processing (quantum module
// first, classical clean-up after) and co-processing (alternating rounds
// of classical refinement and reverse annealing).

// PostProcessing runs a quantum FA pass and then classically refines the
// best samples by steepest descent — the structure where classical
// computing "checks and repairs" quantum output.
type PostProcessing struct {
	// Forward configures the quantum pass.
	Forward ForwardSolver
	// Refine is the number of top samples to descend from (default 10).
	Refine int
}

// Solve implements the structure.
func (p *PostProcessing) Solve(red *mimo.Reduction, r *rng.Source) (*Outcome, error) {
	out, err := p.Forward.Solve(red, r)
	if err != nil {
		return nil, err
	}
	refine := p.Refine
	if refine <= 0 {
		refine = 10
	}
	// Descend from the lowest-energy distinct samples.
	best := out.Best
	seen := 0
	for _, s := range lowestSamples(out.Samples, refine) {
		seen++
		d := qubo.SteepestDescent(red.Ising, s.Spins)
		if d.Energy < best.Energy {
			best = d
		}
	}
	if seen == 0 {
		return nil, fmt.Errorf("core: post-processing got no samples")
	}
	out.Best = best
	out.Symbols = red.DecodeSpins(best.Spins)
	return out, nil
}

// lowestSamples returns up to k samples with the lowest energies.
func lowestSamples(samples []qubo.Sample, k int) []qubo.Sample {
	out := append([]qubo.Sample(nil), samples...)
	// Partial selection sort: k is small.
	if k > len(out) {
		k = len(out)
	}
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < len(out); j++ {
			if out[j].Energy < out[min].Energy {
				min = j
			}
		}
		out[i], out[min] = out[min], out[i]
	}
	return out[:k]
}

// CoProcessing alternates classical refinement and reverse annealing for
// a fixed number of rounds: each round descends classically from the
// incumbent and then reverse-anneals from the result, keeping the best
// state seen. This is Figure 1's tightest coupling of the two processor
// types.
type CoProcessing struct {
	// Rounds is the number of classical↔quantum iterations (default 3).
	Rounds int
	// Sp, Tp, ReadsPerRound configure each RA pass (defaults 0.45, 1, 30).
	Sp, Tp        float64
	ReadsPerRound int
	// Classical seeds round one (default GreedyModule).
	Classical ClassicalModule
	Config    AnnealConfig
}

// Solve implements the structure.
func (c *CoProcessing) Solve(red *mimo.Reduction, r *rng.Source) (*Outcome, error) {
	rounds := c.Rounds
	if rounds <= 0 {
		rounds = 3
	}
	sp, tp, reads := c.Sp, c.Tp, c.ReadsPerRound
	if sp == 0 {
		sp = 0.45
	}
	if tp == 0 {
		tp = 1
	}
	if reads <= 0 {
		reads = 30
	}
	classical := c.Classical
	if classical == nil {
		classical = GreedyModule{}
	}
	init, err := classical.Initialize(red, r.SplitString("classical"))
	if err != nil {
		return nil, err
	}
	sc, err := annealer.Reverse(sp, tp)
	if err != nil {
		return nil, err
	}
	cur := qubo.SteepestDescent(red.Ising, init)
	best := cur
	out := &Outcome{
		InitialState:     init,
		InitialEnergy:    red.Ising.Energy(init),
		ScheduleDuration: sc.Duration(),
	}
	for round := 0; round < rounds; round++ {
		res, err := c.Config.QPU.Run(red.Ising, c.Config.params(sc, cur.Spins, reads), r.Split(uint64(round)))
		if err != nil {
			return nil, err
		}
		out.Samples = append(out.Samples, res.Samples...)
		out.AnnealTime += res.TotalAnnealTime
		// Classical half of the next round: descend from the quantum best.
		cur = qubo.SteepestDescent(red.Ising, res.Best.Spins)
		if cur.Energy < best.Energy {
			best = cur
		}
	}
	out.Best = best
	out.Symbols = red.DecodeSpins(best.Spins)
	return out, nil
}
