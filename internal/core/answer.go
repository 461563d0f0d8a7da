package core

import "repro/internal/qubo"

// FallbackMicrosPerSpin is the modelled μs-per-spin cost of answering a
// frame from its ready classical candidate — Reduce's fallback rung.
// Decoding a state the classical module already computed is nearly free
// (N·1 ns), and every layer that sheds or falls back (the fleet, the
// C-RAN router, the pipeline's ClassicalFallback) charges this one price.
const FallbackMicrosPerSpin = 1e-3

// Arm is one executed arm of a frame as Reduce sees it: the arm's best
// sample and who produced it (AnswerQuantum for an anneal,
// AnswerClassicalSolver for a classical backend), or the device fault
// that left it with nothing. Reduce returns the frame's answer in the
// same shape: the winning sample and its ladder rung.
type Arm struct {
	Best   qubo.Sample
	Source AnswerSource
	// Fault marks an unhealthy arm; its Best is ignored. On an answer it
	// is the first arm fault when no arm was healthy (nil otherwise).
	Fault error
	// Gain is set on an answer only: an arm won with a best strictly
	// below every classical candidate. Ties go to the arm, so Source alone
	// cannot tell an arm that improved on its candidate from one that
	// echoed it; Gain can.
	Gain bool
}

// Reduce is the hybrid structure's answer rule (§2, §4.1) and the only
// statement of its degradation ladder:
//
//  1. over the healthy arms (Fault == nil), the first strict-minimum
//     best wins, carrying that arm's Source;
//  2. every classical candidate then competes in order and wins only
//     when strictly lower (AnswerClassicalCandidate) — a hybrid never
//     returns worse than its classical half;
//  3. with no healthy arm, the lowest-energy candidate (earliest on ties)
//     answers as AnswerClassicalFallback with the first arm fault.
//
// The answer's Gain reports whether rung 1's winner is strictly below
// every candidate (vacuously so with no candidates).
//
// A winning arm's sample is returned as is; a winning candidate's spins
// are copied, so the answer never aliases a candidate. Reduce neither
// retains nor writes its slices, so single-arm callers can pass slice
// literals without a heap allocation.
func Reduce(is *qubo.Ising, candidates [][]int8, arms []Arm) Arm {
	var a Arm
	var firstFault error
	healthy := false
	for i := range arms {
		if arms[i].Fault != nil {
			if firstFault == nil {
				firstFault = arms[i].Fault
			}
			continue
		}
		if !healthy || arms[i].Best.Energy < a.Best.Energy {
			a.Best, a.Source = arms[i].Best, arms[i].Source
			healthy = true
		}
	}
	if !healthy {
		a.Source, a.Fault = AnswerClassicalFallback, firstFault
	}
	win, winE := -1, a.Best.Energy
	a.Gain = healthy
	for c, s := range candidates {
		e := is.Energy(s)
		if e <= a.Best.Energy {
			a.Gain = false
		}
		if e < winE || !healthy && win < 0 {
			win, winE = c, e
		}
	}
	if win >= 0 {
		a.Best = qubo.Sample{Spins: append([]int8(nil), candidates[win]...), Energy: winE}
		if healthy {
			a.Source = AnswerClassicalCandidate
		}
	}
	return a
}
