package core

import (
	"fmt"

	"repro/internal/annealer"
	"repro/internal/mimo"
	"repro/internal/rng"
)

// Hybrid is the paper's prototype (§4.1): a sequential classical→quantum
// pre-processing structure. The classical module's candidate initializes
// a Reverse Annealing run with switch/pause location Sp and a
// PauseMicros pause; the lowest-energy state seen (including the
// candidate itself) is the answer.
type Hybrid struct {
	// Classical produces the RA initial state (default GreedyModule).
	Classical ClassicalModule
	// Sp is the RA switch+pause location (default RASp).
	Sp float64
	// NumReads is the anneal sample count per solve (default 100).
	NumReads int
	// Config bundles the simulated-device settings.
	Config AnnealConfig
	// FallbackOnFault degrades gracefully: when the quantum stage fails
	// with an injected device fault, Solve answers with the classical
	// candidate (Source = AnswerClassicalFallback) instead of erroring.
	// Non-fault errors still propagate.
	FallbackOnFault bool
}

func (h *Hybrid) withDefaults() Hybrid {
	out := *h
	if out.Classical == nil {
		out.Classical = GreedyModule{}
	}
	if out.Sp == 0 {
		out.Sp = RASp
	}
	out.NumReads = defaultReads(out.NumReads)
	return out
}

// Solve runs the hybrid pipeline on a reduced detection problem: the
// one-candidate × {Sp} arm plan of the ensemble's arm runner, answered
// by Reduce.
func (h *Hybrid) Solve(red *mimo.Reduction, r *rng.Source) (*Outcome, error) {
	cfg := h.withDefaults()
	init, err := cfg.Classical.Initialize(red, r.SplitString("classical"))
	if err != nil {
		return nil, fmt.Errorf("core: classical module: %w", err)
	}
	out, err := cfg.Config.runArms(red, [][]int8{init}, []float64{cfg.Sp}, cfg.NumReads, h.FallbackOnFault, r)
	if err != nil {
		return nil, err
	}
	return &out.Outcome, nil
}

// ForwardSolver runs plain Forward Annealing at the paper's forward
// operating point (AnnealMicros, FASp, PauseMicros) — the fully quantum
// baseline (QuAMax) the paper compares against.
type ForwardSolver struct {
	// NumReads is the sample count (default 100).
	NumReads int
	Config   AnnealConfig
}

// Solve runs FA on the reduced problem.
func (f *ForwardSolver) Solve(red *mimo.Reduction, r *rng.Source) (*Outcome, error) {
	sc, err := annealer.Forward(AnnealMicros, FASp, PauseMicros)
	if err != nil {
		return nil, err
	}
	return f.Config.anneal(red, sc, defaultReads(f.NumReads), r)
}

// ForwardReverseSolver runs the single-step FR schedule — the second
// fully quantum comparison scheme, where the RA initial state is the
// un-measured state the forward leg reaches at the turn point c_p = 0.7
// (the paper's "oracle" scheme searches c_p exhaustively); the pause is
// PauseMicros and the final forward leg AnnealMicros.
type ForwardReverseSolver struct {
	// Sp is the reversal/pause location (default RASp).
	Sp float64
	// NumReads is the sample count (default 100).
	NumReads int
	Config   AnnealConfig
}

// Solve runs FR on the reduced problem.
func (f *ForwardReverseSolver) Solve(red *mimo.Reduction, r *rng.Source) (*Outcome, error) {
	sp := f.Sp
	if sp == 0 {
		sp = RASp
	}
	sc, err := annealer.ForwardReverse(0.7, sp, PauseMicros, AnnealMicros)
	if err != nil {
		return nil, err
	}
	return f.Config.anneal(red, sc, defaultReads(f.NumReads), r)
}

// defaultReads resolves a solver's NumReads: non-positive means 100.
func defaultReads(n int) int {
	if n <= 0 {
		return 100
	}
	return n
}

// anneal is the fully quantum schemes' shared tail: one batch of reads
// of red under sc, wrapped as an Outcome.
func (c AnnealConfig) anneal(red *mimo.Reduction, sc *annealer.Schedule, reads int, r *rng.Source) (*Outcome, error) {
	res, err := c.QPU.Run(red.Ising, c.params(sc, nil, reads), r)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Symbols:          red.DecodeSpins(res.Best.Spins),
		Best:             res.Best,
		Samples:          res.Samples,
		AnnealTime:       res.TotalAnnealTime,
		ScheduleDuration: res.ScheduleDuration,
		BrokenChainRate:  res.BrokenChainRate,
	}, nil
}
