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
// ten lowest-energy samples by steepest descent — the structure where
// classical computing "checks and repairs" quantum output.
type PostProcessing struct {
	// Forward configures the quantum pass.
	Forward ForwardSolver
}

// Solve implements the structure.
func (p *PostProcessing) Solve(red *mimo.Reduction, r *rng.Source) (*Outcome, error) {
	out, err := p.Forward.Solve(red, r)
	if err != nil {
		return nil, err
	}
	best := out.Best
	seen := 0
	for _, s := range qubo.LowestSamples(out.Samples, 10) {
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

// CoProcessing alternates classical refinement and reverse annealing for
// a fixed number of rounds: greedy search seeds round one, each round
// descends classically from the incumbent and then reverse-anneals from
// the result with a PauseMicros pause, keeping the best state seen. This
// is Figure 1's tightest coupling of the two processor types.
type CoProcessing struct {
	// Rounds is the number of classical↔quantum iterations (default 3).
	Rounds int
	// Sp, ReadsPerRound configure each RA pass (defaults RASp, 30).
	Sp            float64
	ReadsPerRound int
	Config        AnnealConfig
}

// Solve implements the structure.
func (c *CoProcessing) Solve(red *mimo.Reduction, r *rng.Source) (*Outcome, error) {
	rounds := c.Rounds
	if rounds <= 0 {
		rounds = 3
	}
	sp, reads := c.Sp, c.ReadsPerRound
	if sp == 0 {
		sp = RASp
	}
	if reads <= 0 {
		reads = 30
	}
	sc, err := annealer.Reverse(sp, PauseMicros)
	if err != nil {
		return nil, err
	}
	init := qubo.GreedySearchIsing(red.Ising, qubo.OrderDescending)
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
