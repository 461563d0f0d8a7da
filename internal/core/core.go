// Package core implements the paper's contribution: hybrid classical-
// quantum computation structures for wireless MIMO detection.
//
// The prototype of §4.1 is the pre-processing structure of Figure 1: a
// classical module (Greedy Search by default, or any detector/heuristic)
// produces a candidate solution that programs the initial state of a
// Reverse Annealing run on the (simulated) quantum annealer; the best
// anneal sample is the detection output. The package also provides the
// other two coordination structures Figure 1 sketches — post-processing
// (quantum first, classical refinement after) and co-processing
// (alternating rounds) — plus the s_p parameter search of Challenge 2.
package core

import (
	"fmt"

	"repro/internal/annealer"
	"repro/internal/mimo"
	"repro/internal/qubo"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// The paper's operating point. Reverse anneals switch at s_p = RASp,
// inside the 0.33–0.49 working window, and pause PauseMicros (§4.2);
// the forward-anneal baseline (QuAMax) anneals for AnnealMicros, the
// hardware minimum, with its PauseMicros pause at s_p = FASp, the only
// location where FA succeeded in Figure 8.
const (
	RASp         = 0.45
	FASp         = 0.41
	PauseMicros  = 1.0
	AnnealMicros = 1.0
)

// ClassicalModule produces a candidate spin state for a reduced detection
// problem — the classical half of the hybrid design.
type ClassicalModule interface {
	// Initialize returns a candidate spin configuration.
	Initialize(red *mimo.Reduction, r *rng.Source) ([]int8, error)
	// Name identifies the module in experiment output.
	Name() string
}

// GreedyModule is the paper's §4.1(1) classical module: deterministic
// greedy search over the QUBO/Ising form, committing the strongest
// fields first.
type GreedyModule struct{}

// Name implements ClassicalModule.
func (GreedyModule) Name() string { return "gs" }

// Initialize implements ClassicalModule.
func (GreedyModule) Initialize(red *mimo.Reduction, _ *rng.Source) ([]int8, error) {
	return qubo.GreedySearchIsing(red.Ising, qubo.OrderDescending), nil
}

// RandomModule draws a uniformly random initial state — Figure 6
// (center)'s baseline showing that RA needs a GOOD initial state.
type RandomModule struct{}

// Name implements ClassicalModule.
func (RandomModule) Name() string { return "random" }

// Initialize implements ClassicalModule.
func (RandomModule) Initialize(red *mimo.Reduction, r *rng.Source) ([]int8, error) {
	return qubo.RandomSample(red.Ising, r).Spins, nil
}

// DetectorModule adapts any MIMO detector (ZF, MMSE, K-best, FCSD, …)
// into a classical module — the "application-specific classical solvers"
// the conclusion proposes: the detector's symbol estimate is encoded as
// the initial spin state.
type DetectorModule struct {
	Detector mimo.Detector
}

// Name implements ClassicalModule.
func (m DetectorModule) Name() string { return m.Detector.Name() }

// Initialize implements ClassicalModule.
func (m DetectorModule) Initialize(red *mimo.Reduction, _ *rng.Source) ([]int8, error) {
	symbols, err := m.Detector.Detect(red.Problem())
	if err != nil {
		return nil, err
	}
	return red.EncodeSymbols(symbols)
}

// SAModule uses classical simulated annealing as the initializer — a
// stronger (and slower) classical module for ablations.
type SAModule struct {
	Opts qubo.SAOptions
}

// Name implements ClassicalModule.
func (SAModule) Name() string { return "sa" }

// Initialize implements ClassicalModule.
func (m SAModule) Initialize(red *mimo.Reduction, r *rng.Source) ([]int8, error) {
	return qubo.SimulatedAnnealing(red.Ising, r, m.Opts).Spins, nil
}

// FixedModule replays a pre-computed state — used to study RA performance
// as a function of the initial state's quality (Figures 7 and 8).
type FixedModule struct {
	State []int8
}

// Name implements ClassicalModule.
func (FixedModule) Name() string { return "fixed" }

// Initialize implements ClassicalModule.
func (m FixedModule) Initialize(red *mimo.Reduction, _ *rng.Source) ([]int8, error) {
	if len(m.State) != red.NumSpins() {
		return nil, fmt.Errorf("core: fixed state has %d spins, problem needs %d", len(m.State), red.NumSpins())
	}
	return m.State, nil
}

// AnnealConfig bundles the simulated-device settings shared by all
// solvers so comparisons hold them fixed. Every solver simulates SVMC
// dynamics without control-error noise.
type AnnealConfig struct {
	// Profile sets energy scales (default the 2000Q profile).
	Profile *annealer.Profile
	// SweepsPerMicrosecond is the simulation clock rate (default 100).
	SweepsPerMicrosecond float64
	// Faults injects hard device failures (programming failures, read
	// timeouts, chain-break storms, calibration drift).
	Faults annealer.FaultModel
	// QPU, when set, runs every anneal through a QPU lease: the QPU's
	// capacity check and span timing on the logical problem, or the
	// Chimera-embedded chain path when QPU.Chains is set. Nil runs the
	// bare logical sampler (a nil *QPU's Lease and Run are NewLease and
	// annealer.Run).
	QPU *annealer.QPU
	// Parallelism fans anneal reads across goroutines (deterministic at
	// any level; default sequential).
	Parallelism int
	// Trace, Metrics, Probe, and Timing are the telemetry hooks threaded
	// into every anneal batch a solver issues (see annealer.Params); all
	// nil-safe, all observation-only — traced solves are bit-identical
	// to untraced solves.
	Trace   *telemetry.Tracer
	Metrics *telemetry.Registry
	Probe   annealer.Probe
	Timing  *annealer.DeviceTiming
}

func (c AnnealConfig) params(sc *annealer.Schedule, init []int8, reads int) annealer.Params {
	return annealer.Params{
		Schedule:             sc,
		InitialState:         init,
		NumReads:             reads,
		Profile:              c.Profile,
		SweepsPerMicrosecond: c.SweepsPerMicrosecond,
		Faults:               c.Faults,
		Parallelism:          c.Parallelism,
		Trace:                c.Trace,
		Metrics:              c.Metrics,
		Probe:                c.Probe,
		Timing:               c.Timing,
	}
}

// recordAnswerSource publishes where a solve's answer came from — the
// degradation-ladder share (quantum / classical-candidate /
// classical-fallback) the availability analyses watch.
func (c AnnealConfig) recordAnswerSource(s AnswerSource) {
	if c.Metrics != nil {
		c.Metrics.Counter("core_answer_source_total",
			telemetry.Label{Key: "source", Value: s.String()}).Inc()
	}
}

// AnswerSource labels where an Outcome's reported answer came from — the
// degradation ladder of the hybrid structure.
type AnswerSource int

// The answer sources, best to most degraded.
const (
	// AnswerQuantum: the best anneal sample won.
	AnswerQuantum AnswerSource = iota
	// AnswerClassicalCandidate: the classical candidate beat every anneal
	// sample (a hybrid never returns worse than its classical half).
	AnswerClassicalCandidate
	// AnswerClassicalFallback: the quantum stage failed and the classical
	// candidate was used — quality degrades, availability doesn't.
	AnswerClassicalFallback
	// AnswerClassicalSolver: a first-class classical backend (simulated
	// annealing, parallel tempering, QAOA statevector) served the frame by
	// design — a routing decision, not a degradation.
	AnswerClassicalSolver
)

// String names the source.
func (s AnswerSource) String() string {
	switch s {
	case AnswerQuantum:
		return "quantum"
	case AnswerClassicalCandidate:
		return "classical-candidate"
	case AnswerClassicalFallback:
		return "classical-fallback"
	case AnswerClassicalSolver:
		return "classical-solver"
	}
	return fmt.Sprintf("AnswerSource(%d)", int(s))
}

// Degraded reports whether the quantum module contributed nothing.
func (s AnswerSource) Degraded() bool { return s == AnswerClassicalFallback }

// Outcome reports one hybrid solve.
type Outcome struct {
	// Symbols is the detected symbol vector (from the best sample).
	Symbols []complex128
	// Best is the lowest-energy sample across the anneal reads and the
	// classical candidate.
	Best qubo.Sample
	// Samples are the raw anneal reads.
	Samples []qubo.Sample
	// InitialState and InitialEnergy describe the classical candidate fed
	// to the quantum module.
	InitialState  []int8
	InitialEnergy float64
	// AnnealTime is the total quantum schedule time consumed (μs).
	AnnealTime float64
	// ScheduleDuration is one read's schedule length (μs).
	ScheduleDuration float64
	// BrokenChainRate carries over from embedded runs.
	BrokenChainRate float64
	// Source records whether the answer is quantum-refined, the classical
	// candidate, or a classical fallback after a quantum fault.
	Source AnswerSource
	// Fault is the quantum-stage fault a degraded solve recovered from
	// (nil unless Source is AnswerClassicalFallback).
	Fault error
	// FaultStats tallies soft faults injected into the anneal reads.
	FaultStats annealer.FaultStats
}
