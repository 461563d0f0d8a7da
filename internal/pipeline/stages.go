package pipeline

import (
	"fmt"
	"math"

	"repro/internal/annealer"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/mimo"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// DetectionPayload is the data a channel use carries through the
// classical→quantum detection pipeline.
type DetectionPayload struct {
	Instance *instance.Instance
	// InitialState is produced by the classical stage.
	InitialState []int8
	// Symbols and BestEnergy are produced by the quantum stage (or the
	// fallback).
	Symbols    []complex128
	BestEnergy float64
	// SymbolErrors compares against the transmitted truth.
	SymbolErrors int
	// Source records where the answer came from (quantum-refined,
	// classical candidate, or classical fallback).
	Source core.AnswerSource
	// SoftLLRs is the fused per-spin soft output when the frame was
	// detected by an EnsembleStage (nil on the single-arm path).
	SoftLLRs []float64
	// Degraded reports the quantum stage contributed nothing — the frame
	// was answered by the classical candidate after a fault or deadline
	// abort.
	Degraded bool
}

// ClassicalStage runs the hybrid design's classical module on each frame
// and charges a compute-time model for it.
type ClassicalStage struct {
	Module core.ClassicalModule
	// MicrosFor models the module's compute time from the spin count;
	// nil charges the default N²·1ns quadratic model (GS's sort+pass is
	// "nearly negligible" — §4.1 — so the default lands well under a μs
	// for paper-scale problems).
	MicrosFor func(numSpins int) float64
	// Rng seeds stochastic modules; deterministic per frame sequence.
	Rng *rng.Source
}

// Name implements Stage.
func (s *ClassicalStage) Name() string {
	m := s.Module
	if m == nil {
		m = core.GreedyModule{}
	}
	return "cpu:" + m.Name()
}

// Process implements Stage.
func (s *ClassicalStage) Process(f *Frame) (float64, error) {
	pl, ok := f.Payload.(*DetectionPayload)
	if !ok {
		return 0, fmt.Errorf("frame payload is %T, want *DetectionPayload", f.Payload)
	}
	m := s.Module
	if m == nil {
		m = core.GreedyModule{}
	}
	r := s.Rng
	if r == nil {
		r = rng.New(0)
	}
	init, err := m.Initialize(pl.Instance.Reduction, r.Split(uint64(f.Seq)))
	if err != nil {
		return 0, err
	}
	pl.InitialState = init
	n := pl.Instance.Reduction.NumSpins()
	if s.MicrosFor != nil {
		return s.MicrosFor(n), nil
	}
	return float64(n*n) * 1e-3, nil
}

// QuantumStage reverse-anneals each frame from its classical candidate
// and charges the device service time.
type QuantumStage struct {
	// Sp, Tp, NumReads configure the RA program (defaults 0.45, 1, 50).
	Sp, Tp   float64
	NumReads int
	Config   core.AnnealConfig
	// ProgrammingMicros and ReadoutMicros model per-call and per-read
	// device overheads added to the pure anneal time. The paper's Figure 2
	// pipelining is exactly about hiding these behind the classical
	// stage; defaults are 0 (fully amortized) — set them to
	// 2000Q-realistic values (10⁴, 123) to see today's integration cost.
	ProgrammingMicros float64
	ReadoutMicros     float64
	Rng               *rng.Source
}

// Name implements Stage.
func (s *QuantumStage) Name() string { return "qpu:ra" }

// Process implements Stage.
func (s *QuantumStage) Process(f *Frame) (float64, error) {
	pl, ok := f.Payload.(*DetectionPayload)
	if !ok {
		return 0, fmt.Errorf("frame payload is %T, want *DetectionPayload", f.Payload)
	}
	if pl.InitialState == nil {
		return 0, fmt.Errorf("frame %d reached the quantum stage without a classical candidate", f.Seq)
	}
	sp, tp, reads := s.Sp, s.Tp, s.NumReads
	if sp == 0 {
		sp = 0.45
	}
	if tp == 0 {
		tp = 1
	}
	if reads <= 0 {
		reads = 50
	}
	r := s.Rng
	if r == nil {
		r = rng.New(1)
	}
	// Attempt 0 uses the exact per-frame stream an unretried stage would;
	// re-attempts derive fresh sub-streams so a retry is not a replay of
	// the same faulted call.
	rr := r.Split(uint64(f.Seq))
	if f.Attempt > 0 {
		rr = rr.Split(uint64(f.Attempt))
	}
	h := &core.Hybrid{
		Classical: core.FixedModule{State: pl.InitialState},
		Sp:        sp, Tp: tp, NumReads: reads,
		Config: s.Config,
	}
	out, err := h.Solve(pl.Instance.Reduction, rr)
	if err != nil {
		// A failed call still occupied the device for its programming
		// cycle; charge that so retry accounting reflects real time lost.
		return s.ProgrammingMicros, err
	}
	pl.Symbols = out.Symbols
	pl.BestEnergy = out.Best.Energy
	pl.SymbolErrors = mimo.SymbolErrors(out.Symbols, pl.Instance.Transmitted)
	pl.Source = out.Source
	pl.Degraded = out.Source.Degraded()
	service := s.ProgrammingMicros + float64(reads)*(out.ScheduleDuration+s.ReadoutMicros)
	return service, nil
}

// ClassicalFallback answers a frame whose quantum stage could not complete
// with the classical candidate the classical stage already computed — the
// availability guarantee of the hybrid structure (core.Reduce's fallback
// rung): the GS answer is always on hand, so a QPU outage degrades
// quality, never completeness.
type ClassicalFallback struct {
	// MicrosFor models the decode cost from the spin count; nil charges
	// core.FallbackMicrosPerSpin per spin.
	MicrosFor func(numSpins int) float64
}

// Name implements Fallback.
func (c *ClassicalFallback) Name() string { return "cpu:classical-fallback" }

// Recover implements Fallback.
func (c *ClassicalFallback) Recover(f *Frame) (float64, error) {
	pl, ok := f.Payload.(*DetectionPayload)
	if !ok {
		return 0, fmt.Errorf("frame payload is %T, want *DetectionPayload", f.Payload)
	}
	if pl.InitialState == nil {
		return 0, fmt.Errorf("frame %d has no classical candidate to fall back to", f.Seq)
	}
	red := pl.Instance.Reduction
	ans := core.Reduce(red.Ising, [][]int8{pl.InitialState}, nil)
	pl.Symbols = red.DecodeSpins(ans.Best.Spins)
	pl.BestEnergy = ans.Best.Energy
	pl.SymbolErrors = mimo.SymbolErrors(pl.Symbols, pl.Instance.Transmitted)
	pl.Source = ans.Source
	pl.Degraded = ans.Source.Degraded()
	n := red.NumSpins()
	if c.MicrosFor != nil {
		return c.MicrosFor(n), nil
	}
	return float64(n) * core.FallbackMicrosPerSpin, nil
}

// validateFrameTiming rejects degenerate arrival parameters before they
// poison a simulation: NaN/Inf intervals or deadlines silently collapse
// every frame onto t=0 (or push them past any deadline), and negative
// values invert the arrival order.
func validateFrameTiming(intervalName string, intervalMicros float64, requirePositive bool, deadlineMicros float64) error {
	if math.IsNaN(intervalMicros) || math.IsInf(intervalMicros, 0) {
		return fmt.Errorf("pipeline: %s must be finite, got %v", intervalName, intervalMicros)
	}
	if requirePositive && intervalMicros <= 0 {
		return fmt.Errorf("pipeline: %s must be positive, got %v", intervalName, intervalMicros)
	}
	if !requirePositive && intervalMicros < 0 {
		return fmt.Errorf("pipeline: %s must be non-negative, got %v", intervalName, intervalMicros)
	}
	if math.IsNaN(deadlineMicros) || math.IsInf(deadlineMicros, 0) {
		return fmt.Errorf("pipeline: deadline must be finite, got %v", deadlineMicros)
	}
	if deadlineMicros < 0 {
		return fmt.Errorf("pipeline: deadline must be non-negative, got %v (0 disables the deadline)", deadlineMicros)
	}
	return nil
}

// GenerateFrames turns an instance corpus into a periodic frame arrival
// process: frame i arrives at i·interval μs with the given ARQ deadline.
// Interval 0 (all frames arrive together — a full backlog) and deadline 0
// (no deadline) are valid; negative or non-finite values are errors.
func GenerateFrames(insts []*instance.Instance, intervalMicros, deadlineMicros float64) ([]*Frame, error) {
	if err := validateFrameTiming("interval", intervalMicros, false, deadlineMicros); err != nil {
		return nil, err
	}
	frames := make([]*Frame, len(insts))
	for i, inst := range insts {
		frames[i] = &Frame{
			Seq:      i,
			Arrival:  float64(i) * intervalMicros,
			Deadline: deadlineMicros,
			Payload:  &DetectionPayload{Instance: inst},
		}
	}
	return frames, nil
}

// RecordDetectionOutcomes publishes each detection frame's answer source
// (quantum / classical-candidate / classical-fallback) and fallback
// reason to reg — the runtime fallback-share exposition that PR 1's
// degradation ladder previously only surfaced in post-hoc tables. Frames
// whose payload is not a DetectionPayload are skipped.
func RecordDetectionOutcomes(reg *telemetry.Registry, frames []*Frame) {
	if reg == nil {
		return
	}
	for _, f := range frames {
		pl, ok := f.Payload.(*DetectionPayload)
		if !ok {
			continue
		}
		reg.Counter("pipeline_answer_source_total",
			telemetry.Label{Key: "source", Value: pl.Source.String()}).Inc()
		if f.Stats.FellBack && f.Stats.FallbackReason != "" {
			reg.Counter("pipeline_fallback_reason_total",
				telemetry.Label{Key: "reason", Value: f.Stats.FallbackReason}).Inc()
		}
	}
}

// QuantumServiceTime exposes the stage's service model for capacity
// planning: the μs one frame occupies the QPU.
func (s *QuantumStage) QuantumServiceTime() (float64, error) {
	sp, tp, reads := s.Sp, s.Tp, s.NumReads
	if sp == 0 {
		sp = 0.45
	}
	if tp == 0 {
		tp = 1
	}
	if reads <= 0 {
		reads = 50
	}
	sc, err := annealer.Reverse(sp, tp)
	if err != nil {
		return 0, err
	}
	return s.ProgrammingMicros + float64(reads)*(sc.Duration()+s.ReadoutMicros), nil
}

// GenerateFramesPoisson turns an instance corpus into a Poisson arrival
// process with the given mean inter-arrival time — the bursty-traffic
// counterpart of GenerateFrames for stress-testing deadline behaviour
// under Challenge 3. The mean must be strictly positive and finite (an
// exponential with mean ≤ 0 is not a distribution); deadline 0 disables
// the deadline.
func GenerateFramesPoisson(insts []*instance.Instance, meanIntervalMicros, deadlineMicros float64, r *rng.Source) ([]*Frame, error) {
	if err := validateFrameTiming("mean interval", meanIntervalMicros, true, deadlineMicros); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, fmt.Errorf("pipeline: Poisson arrivals need an RNG source")
	}
	frames := make([]*Frame, len(insts))
	t := 0.0
	for i, inst := range insts {
		if i > 0 {
			// Exponential inter-arrival via inverse CDF.
			u := r.Float64()
			for u == 0 {
				u = r.Float64()
			}
			t += -meanIntervalMicros * math.Log(u)
		}
		frames[i] = &Frame{
			Seq:      i,
			Arrival:  t,
			Deadline: deadlineMicros,
			Payload:  &DetectionPayload{Instance: inst},
		}
	}
	return frames, nil
}
