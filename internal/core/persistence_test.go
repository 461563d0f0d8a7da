package core

import (
	"math"
	"testing"

	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

func TestPersistentSpins(t *testing.T) {
	samples := []qubo.Sample{
		{Spins: []int8{1, 1, -1, 1}, Energy: -10},
		{Spins: []int8{1, -1, -1, 1}, Energy: -9},
		{Spins: []int8{1, 1, -1, -1}, Energy: -8},
		{Spins: []int8{-1, -1, 1, -1}, Energy: 50}, // non-elite outlier
	}
	// Elite = best 3 (fraction 0.75), unanimity: spin 0 (+1) and spin 2
	// (−1) persist; spins 1 and 3 disagree.
	vars, values, err := qubo.PersistentSpins(samples, 0.75, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 2 || vars[0] != 0 || vars[1] != 2 {
		t.Fatalf("vars = %v", vars)
	}
	if values[0] != 1 || values[1] != -1 {
		t.Fatalf("values = %v", values)
	}
	// Lower agreement threshold admits spin 3 (2/3 at −1... 2 < need?).
	vars, _, err = qubo.PersistentSpins(samples, 0.75, 0.66)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) < 3 {
		t.Fatalf("loose agreement found only %v", vars)
	}
	if _, _, err := qubo.PersistentSpins(nil, 0.5, 1); err == nil {
		t.Fatal("empty samples accepted")
	}
	if _, _, err := qubo.PersistentSpins(samples, 0, 1); err == nil {
		t.Fatal("zero elite fraction accepted")
	}
}

func TestSamplePersistenceSolves(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 5, 63) // 20 spins
	s := &SamplePersistence{Rounds: 3, ReadsPerRound: 40, Config: fastCfg()}
	out, err := s.Solve(inst.Reduction, rng.New(65))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Symbols) != 5 {
		t.Fatal("symbols missing")
	}
	if math.Abs(inst.Reduction.Ising.Energy(out.Best.Spins)-out.Best.Energy) > 1e-9 {
		t.Fatal("best energy inconsistent")
	}
	// The loop must do no worse than its own first-round best: Best is
	// the minimum over all rounds by construction; sanity-check against
	// samples.
	for _, smp := range out.Samples {
		if smp.Energy < out.Best.Energy-1e-9 {
			t.Fatal("Best is not minimal over samples")
		}
	}
	// It should land near the optimum on an easy 20-spin instance.
	if out.Best.Energy > inst.GroundEnergy+math.Abs(inst.Reduction.Ising.Offset)*0.05+1e-6 {
		t.Fatalf("persistence best %v far above ground %v", out.Best.Energy, inst.GroundEnergy)
	}
}

// TestSamplePersistenceShrinks: with strict unanimity on an easy problem
// the live subproblem shrinks across rounds (observable via anneal time
// accounting: later rounds anneal smaller problems but same schedule, so
// just verify it runs all rounds without error and returns consistent
// full-length states).
func TestSamplePersistenceShrinks(t *testing.T) {
	inst := testInstance(t, modulation.QPSK, 6, 67) // 12 spins
	s := &SamplePersistence{Rounds: 4, ReadsPerRound: 30, Config: fastCfg()}
	out, err := s.Solve(inst.Reduction, rng.New(69))
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range out.Samples {
		if len(smp.Spins) != 12 {
			t.Fatalf("sample has %d spins, want full 12", len(smp.Spins))
		}
		for _, sp := range smp.Spins {
			if sp != 1 && sp != -1 {
				t.Fatal("non-spin value in sample")
			}
		}
	}
}
