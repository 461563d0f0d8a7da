package core

import (
	"fmt"

	"repro/internal/annealer"
	"repro/internal/mimo"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// SamplePersistence is the iterative prefix-and-recurse hybrid of the
// paper's reference [28]: draw a forward-anneal batch at the forward
// operating point (AnnealMicros, FASp, PauseMicros), clamp the spins
// unanimous across the better half of the samples, and re-anneal the
// residual subproblem — shrinking the search space each round while the
// clamped context sharpens the remaining spins' effective fields.
type SamplePersistence struct {
	// Rounds bounds the fix-and-recurse iterations (default 3).
	Rounds int
	// ReadsPerRound is the FA batch size per round (default 60).
	ReadsPerRound int
	Config        AnnealConfig
}

// Solve runs the loop on a reduced detection problem.
func (s *SamplePersistence) Solve(red *mimo.Reduction, r *rng.Source) (*Outcome, error) {
	is := red.Ising
	rounds := s.Rounds
	if rounds <= 0 {
		rounds = 3
	}
	reads := s.ReadsPerRound
	if reads <= 0 {
		reads = 60
	}
	sc, err := annealer.Forward(AnnealMicros, FASp, PauseMicros)
	if err != nil {
		return nil, err
	}

	out := &Outcome{ScheduleDuration: sc.Duration()}
	// state accumulates clamped decisions; fixed is the cumulative set of
	// decided spins; cur/curVars track the live subproblem.
	state := make([]int8, is.N)
	for i := range state {
		state[i] = 1
	}
	fixed := make(map[int]bool, is.N)
	cur := is
	curVars := identityVars(is.N)
	var best qubo.Sample
	haveBest := false

	for round := 0; round < rounds && cur.N > 0; round++ {
		res, err := s.Config.QPU.Run(cur, s.Config.params(sc, nil, reads), r.Split(uint64(round)))
		if err != nil {
			return nil, err
		}
		out.AnnealTime += res.TotalAnnealTime
		// Track the best FULL assignment seen.
		for _, smp := range res.Samples {
			full := expand(state, curVars, smp.Spins)
			e := is.Energy(full)
			out.Samples = append(out.Samples, qubo.Sample{Spins: full, Energy: e})
			if !haveBest || e < best.Energy {
				best = qubo.Sample{Spins: full, Energy: e}
				haveBest = true
			}
		}
		vars, values, err := qubo.PersistentSpins(res.Samples, 0.5, 1.0)
		if err != nil {
			return nil, err
		}
		if len(vars) == 0 {
			break // nothing persisted: further rounds would repeat
		}
		// Map subproblem-local persistent spins back to full indices and
		// clamp them cumulatively.
		for k, v := range vars {
			full := curVars[v]
			state[full] = values[k]
			fixed[full] = true
		}
		var free []int
		for i := 0; i < is.N; i++ {
			if !fixed[i] {
				free = append(free, i)
			}
		}
		if len(free) == 0 {
			// Everything decided.
			e := is.Energy(state)
			out.Samples = append(out.Samples, qubo.Sample{Spins: append([]int8(nil), state...), Energy: e})
			if !haveBest || e < best.Energy {
				best = qubo.Sample{Spins: append([]int8(nil), state...), Energy: e}
				haveBest = true
			}
			break
		}
		sub, err := qubo.NewSubproblem(is, free, state)
		if err != nil {
			return nil, err
		}
		cur = sub.Ising
		curVars = sub.Vars
	}
	if !haveBest {
		return nil, fmt.Errorf("core: persistence loop produced no samples")
	}
	out.Best = best
	out.Symbols = red.DecodeSpins(best.Spins)
	return out, nil
}

func identityVars(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// expand writes subproblem spins into a copy of the full state.
func expand(state []int8, vars []int, sub []int8) []int8 {
	full := append([]int8(nil), state...)
	for k, v := range vars {
		full[v] = sub[k]
	}
	return full
}
