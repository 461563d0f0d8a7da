package core

import (
	"fmt"
	"math"

	"repro/internal/annealer"
	"repro/internal/metrics"
	"repro/internal/mimo"
	"repro/internal/rng"
)

// This file addresses Challenge 2 (optimal parameters): sweeping the
// switch/pause location s_p — the parameter Figure 8 shows the hybrid
// design's performance hinges on — and selecting the operating point by
// success probability or TTS.

// SpRange returns the paper's §4.2 sweep grid: 0.25 to 0.99 in steps of
// 0.04.
func SpRange() []float64 {
	var out []float64
	for sp := 0.25; sp < 0.995; sp += 0.04 {
		out = append(out, math.Round(sp*100)/100)
	}
	return out
}

// SpPoint is one sweep measurement.
type SpPoint struct {
	Sp       float64
	PStar    float64 // single-read ground-state probability
	TTS      float64 // μs, at the sweep's confidence
	Duration float64 // one read's schedule μs
}

// SweepResult is a full s_p sweep with its selected operating point.
type SweepResult struct {
	Points []SpPoint
	// Best is the index of the TTS-optimal point (−1 if no point ever
	// found the ground state).
	Best int
}

// BestPoint returns the TTS-optimal measurement, or false when the sweep
// never succeeded.
func (s *SweepResult) BestPoint() (SpPoint, bool) {
	if s.Best < 0 {
		return SpPoint{}, false
	}
	return s.Points[s.Best], true
}

// SweepSp measures RA success probability and TTS across candidate s_p
// values for one problem, using `reads` anneal samples per point and the
// given ground-state energy witness. confidence is the TTS target C_t%
// (the paper uses 99).
func SweepSp(red *mimo.Reduction, init []int8, groundEnergy float64, sps []float64, reads int, confidence float64, cfg AnnealConfig, r *rng.Source) (*SweepResult, error) {
	if len(sps) == 0 {
		return nil, fmt.Errorf("core: empty s_p grid")
	}
	if reads <= 0 {
		reads = 100
	}
	res := &SweepResult{Best: -1}
	tol := groundTolerance(groundEnergy)
	for i, sp := range sps {
		sc, err := annealer.Reverse(sp, PauseMicros)
		if err != nil {
			return nil, err
		}
		run, err := cfg.QPU.Run(red.Ising, cfg.params(sc, init, reads), r.Split(uint64(i)))
		if err != nil {
			return nil, err
		}
		p := metrics.SuccessProbability(run.Samples, groundEnergy, tol)
		pt := SpPoint{
			Sp:       sp,
			PStar:    p,
			TTS:      metrics.TTS(sc.Duration(), p, confidence),
			Duration: sc.Duration(),
		}
		res.Points = append(res.Points, pt)
		if p > 0 && (res.Best < 0 || pt.TTS < res.Points[res.Best].TTS) {
			res.Best = len(res.Points) - 1
		}
	}
	return res, nil
}

// groundTolerance returns the energy tolerance for counting a sample as
// the ground state: noiseless MIMO grounds sit at ≈0 total energy, so an
// absolute floor is combined with a relative term.
func groundTolerance(groundEnergy float64) float64 {
	return 1e-6 + 1e-9*math.Abs(groundEnergy)
}

// OptimizeSp runs the hybrid solver's classical module once and sweeps
// s_p for it, returning the best point — the Challenge-2 workflow an
// operator would run when commissioning a base station.
func OptimizeSp(red *mimo.Reduction, classical ClassicalModule, groundEnergy float64, reads int, cfg AnnealConfig, r *rng.Source) (SpPoint, []int8, error) {
	if classical == nil {
		classical = GreedyModule{}
	}
	init, err := classical.Initialize(red, r.SplitString("classical"))
	if err != nil {
		return SpPoint{}, nil, err
	}
	sweep, err := SweepSp(red, init, groundEnergy, SpRange(), reads, 99, cfg, r.SplitString("sweep"))
	if err != nil {
		return SpPoint{}, nil, err
	}
	best, ok := sweep.BestPoint()
	if !ok {
		return SpPoint{}, init, fmt.Errorf("core: no s_p in the grid found the ground state")
	}
	return best, init, nil
}
