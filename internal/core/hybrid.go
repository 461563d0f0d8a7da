package core

import (
	"fmt"

	"repro/internal/annealer"
	"repro/internal/mimo"
	"repro/internal/rng"
)

// Hybrid is the paper's prototype (§4.1): a sequential classical→quantum
// pre-processing structure. The classical module's candidate initializes
// a Reverse Annealing run with switch/pause location Sp and pause time
// Tp; the lowest-energy state seen (including the candidate itself) is
// the answer.
type Hybrid struct {
	// Classical produces the RA initial state (default GreedyModule).
	Classical ClassicalModule
	// Sp is the RA switch+pause location (default 0.45, inside the
	// paper's working window of 0.33–0.49).
	Sp float64
	// Tp is the pause duration in μs (default 1, per §4.2).
	Tp float64
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
		out.Sp = 0.45
	}
	if out.Tp == 0 {
		out.Tp = 1
	}
	if out.NumReads <= 0 {
		out.NumReads = 100
	}
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
	out, err := cfg.Config.runArms(red, [][]int8{init}, []float64{cfg.Sp}, cfg.Tp, cfg.NumReads, h.FallbackOnFault, r)
	if err != nil {
		return nil, err
	}
	return &out.Outcome, nil
}

// ForwardSolver runs plain Forward Annealing — the fully quantum baseline
// (QuAMax) the paper compares against.
type ForwardSolver struct {
	// Ta is the anneal time in μs (default 1, the hardware minimum the
	// paper uses).
	Ta float64
	// Sp is the pause location (default 0.41, the only value where FA
	// succeeded in Figure 8).
	Sp float64
	// Tp is the pause duration in μs (default 1).
	Tp float64
	// NumReads is the sample count (default 100).
	NumReads int
	Config   AnnealConfig
}

// Solve runs FA on the reduced problem.
func (f *ForwardSolver) Solve(red *mimo.Reduction, r *rng.Source) (*Outcome, error) {
	ta, sp, tp, reads := f.Ta, f.Sp, f.Tp, f.NumReads
	if ta == 0 {
		ta = 1
	}
	if sp == 0 {
		sp = 0.41
	}
	if tp == 0 {
		tp = 1
	}
	if reads <= 0 {
		reads = 100
	}
	sc, err := annealer.Forward(ta, sp, tp)
	if err != nil {
		return nil, err
	}
	return f.Config.anneal(red, sc, reads, r)
}

// ForwardReverseSolver runs the single-step FR schedule — the second
// fully quantum comparison scheme, where the RA initial state is the
// un-measured state the forward leg reaches at s = cp.
type ForwardReverseSolver struct {
	// Cp is the forward turn point (searched exhaustively in the paper's
	// "oracle" scheme; default 0.7).
	Cp float64
	// Sp is the reversal/pause location (default 0.45).
	Sp float64
	// Tp is the pause duration in μs (default 1).
	Tp float64
	// Ta is the final forward leg's anneal time (default 1).
	Ta float64
	// NumReads is the sample count (default 100).
	NumReads int
	Config   AnnealConfig
}

// Solve runs FR on the reduced problem.
func (f *ForwardReverseSolver) Solve(red *mimo.Reduction, r *rng.Source) (*Outcome, error) {
	cp, sp, tp, ta, reads := f.Cp, f.Sp, f.Tp, f.Ta, f.NumReads
	if cp == 0 {
		cp = 0.7
	}
	if sp == 0 {
		sp = 0.45
	}
	if tp == 0 {
		tp = 1
	}
	if ta == 0 {
		ta = 1
	}
	if reads <= 0 {
		reads = 100
	}
	sc, err := annealer.ForwardReverse(cp, sp, tp, ta)
	if err != nil {
		return nil, err
	}
	return f.Config.anneal(red, sc, reads, r)
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
