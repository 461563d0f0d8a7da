package core

import (
	"fmt"
	"sort"

	"repro/internal/annealer"
	"repro/internal/mimo"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// Decomposition is the iterative block-decomposition hybrid (the
// hybridization family of the paper's references [44, 58], and the basis
// of D-Wave's commercial hybrid solver service [1]): problems larger
// than the QPU's clique capacity are solved by repeatedly clamping most
// variables classically and reverse-annealing one block at a time from
// the incumbent, keeping improvements.
//
// This extends the prototype beyond the 2000Q's 64-variable ceiling —
// e.g. a 16-user 64-QAM detection (96 spins) becomes a sequence of
// ≤ 48-spin anneals.
type Decomposition struct {
	// BlockSize is the subproblem size (default 32, well inside clique
	// capacity).
	BlockSize int
	// Rounds is the number of full passes over the variables (default 3).
	Rounds int
	// Sp, ReadsPerBlock configure each block's RA run (defaults RASp,
	// 50); every block pauses PauseMicros.
	Sp            float64
	ReadsPerBlock int
	Config        AnnealConfig
}

// Solve runs the decomposition loop on a reduced detection problem,
// starting from the greedy-search incumbent.
func (d *Decomposition) Solve(red *mimo.Reduction, r *rng.Source) (*Outcome, error) {
	is, n := red.Ising, red.NumSpins()
	blockSize := d.BlockSize
	if blockSize <= 0 {
		blockSize = 32
	}
	if blockSize > n {
		blockSize = n
	}
	rounds := d.Rounds
	if rounds <= 0 {
		rounds = 3
	}
	sp, reads := d.Sp, d.ReadsPerBlock
	if sp == 0 {
		sp = RASp
	}
	if reads <= 0 {
		reads = 50
	}
	sc, err := annealer.Reverse(sp, PauseMicros)
	if err != nil {
		return nil, err
	}
	cur := qubo.GreedySearchIsing(is, qubo.OrderDescending)
	out := &Outcome{
		InitialState:     append([]int8(nil), cur...),
		InitialEnergy:    is.Energy(cur),
		ScheduleDuration: sc.Duration(),
	}
	curEnergy := out.InitialEnergy

	for round := 0; round < rounds; round++ {
		for bi, block := range d.blocks(is, cur, blockSize, r.Split(uint64(round))) {
			sub, err := qubo.NewSubproblem(is, block, cur)
			if err != nil {
				return nil, err
			}
			res, err := d.Config.QPU.Run(sub.Ising,
				d.Config.params(sc, sub.Extract(cur), reads),
				r.SplitString(fmt.Sprintf("round%d/block%d", round, bi)))
			if err != nil {
				return nil, err
			}
			out.AnnealTime += res.TotalAnnealTime
			out.Samples = append(out.Samples, res.Samples...)
			if res.Best.Energy < curEnergy-1e-12 {
				cur = sub.Apply(cur, res.Best.Spins)
				curEnergy = res.Best.Energy
			}
		}
	}
	out.Best = qubo.Sample{Spins: cur, Energy: curEnergy}
	out.Symbols = red.DecodeSpins(cur)
	return out, nil
}

// blocks partitions the variables into blocks for one round, ordering
// them by descending "stress" — the energy a variable could release if
// flipped (−2·s·f clamped at 0) — so the most frustrated regions are
// re-optimized together first, qbsolv-style; ties and the remainder
// randomize via r.
func (d *Decomposition) blocks(is *qubo.Ising, state []int8, blockSize int, r *rng.Source) [][]int {
	n := is.N
	type stressed struct {
		idx    int
		stress float64
	}
	vars := make([]stressed, n)
	for i := 0; i < n; i++ {
		delta := is.FlipDelta(state, i)
		stress := -delta // positive when flipping would release energy
		vars[i] = stressed{idx: i, stress: stress}
	}
	// Random jitter decorrelates rounds, then sort by stress.
	jitter := make([]float64, n)
	for i := range jitter {
		jitter[i] = r.Float64() * 1e-9
	}
	sort.Slice(vars, func(a, b int) bool {
		return vars[a].stress+jitter[vars[a].idx] > vars[b].stress+jitter[vars[b].idx]
	})
	var out [][]int
	for start := 0; start < n; start += blockSize {
		end := start + blockSize
		if end > n {
			end = n
		}
		block := make([]int, 0, end-start)
		for _, v := range vars[start:end] {
			block = append(block, v.idx)
		}
		out = append(out, block)
	}
	return out
}
