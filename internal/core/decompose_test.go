package core

import (
	"math"
	"testing"

	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// TestDecompositionSolvesBeyondBlockSize: a 96-spin problem (16-user
// 64-QAM would be 96; here 8-user 64-QAM = 48 spins with 16-spin blocks)
// is solved through subproblems strictly smaller than itself, and the
// result is never worse than the classical candidate.
func TestDecompositionSolvesBeyondBlockSize(t *testing.T) {
	inst := testInstance(t, modulation.QAM64, 8, 61) // 48 spins
	d := &Decomposition{
		BlockSize:     16,
		Rounds:        2,
		ReadsPerBlock: 25,
		Config:        fastCfg(),
	}
	out, err := d.Solve(inst.Reduction, rng.New(67))
	if err != nil {
		t.Fatal(err)
	}
	if out.Best.Energy > out.InitialEnergy+1e-9 {
		t.Fatalf("decomposition worse than its candidate: %v vs %v", out.Best.Energy, out.InitialEnergy)
	}
	if len(out.Symbols) != 8 {
		t.Fatal("symbols missing")
	}
	if math.Abs(inst.Reduction.Ising.Energy(out.Best.Spins)-out.Best.Energy) > 1e-9 {
		t.Fatal("best energy inconsistent")
	}
	if out.AnnealTime <= 0 {
		t.Fatal("anneal time not accounted")
	}
	d2 := metrics.DeltaEForIsing(inst.Reduction.Ising, out.Best.Energy, inst.GroundEnergy)
	if d2 < 0 {
		t.Fatalf("below-ground energy: ΔE%% = %v", d2)
	}
}

// TestDecompositionImprovesGreedyOften: across a small corpus, block
// re-annealing must strictly improve the greedy candidate on at least
// one instance where greedy was suboptimal (it is a local-search loop;
// staying equal everywhere would mean the quantum module does nothing).
func TestDecompositionImprovesGreedyOften(t *testing.T) {
	improved, suboptimal := 0, 0
	for i := 0; i < 5; i++ {
		inst := testInstance(t, modulation.QAM16, 6, uint64(70+i)) // 24 spins
		gs := qubo.GreedySearchIsing(inst.Reduction.Ising, qubo.OrderDescending)
		gsEnergy := inst.Reduction.Ising.Energy(gs)
		if gsEnergy <= inst.GroundEnergy+1e-6 {
			continue // greedy already optimal: nothing to improve
		}
		suboptimal++
		d := &Decomposition{BlockSize: 12, Rounds: 2, ReadsPerBlock: 40, Config: fastCfg()}
		out, err := d.Solve(inst.Reduction, rng.New(uint64(80+i)))
		if err != nil {
			t.Fatal(err)
		}
		if out.Best.Energy < gsEnergy-1e-9 {
			improved++
		}
	}
	if suboptimal > 0 && improved == 0 {
		t.Fatalf("decomposition never improved a suboptimal greedy candidate (%d chances)", suboptimal)
	}
}

// TestDecompositionBlocksCoverAllVariables: each round's blocks partition
// the variable set.
func TestDecompositionBlocksCoverAllVariables(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 5, 91) // 20 spins
	d := &Decomposition{}
	state := make([]int8, 20)
	for i := range state {
		state[i] = 1
	}
	blocks := d.blocks(inst.Reduction.Ising, state, 7, rng.New(1))
	seen := map[int]bool{}
	for _, b := range blocks {
		if len(b) > 7 {
			t.Fatalf("block too large: %d", len(b))
		}
		for _, v := range b {
			if seen[v] {
				t.Fatalf("variable %d in two blocks", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 20 {
		t.Fatalf("blocks cover %d/20 variables", len(seen))
	}
}

// TestDecompositionOnLargeInstance exercises a problem beyond the QPU's
// 64-spin clique capacity end-to-end: 12-user 64-QAM = 72 spins.
func TestDecompositionOnLargeInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("anneal-heavy")
	}
	spec := instance.Spec{Users: 12, Scheme: modulation.QAM64, Seed: 93}
	inst, err := instance.Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Reduction.NumSpins() != 72 {
		t.Fatalf("spin count %d", inst.Reduction.NumSpins())
	}
	d := &Decomposition{BlockSize: 24, Rounds: 2, ReadsPerBlock: 30, Config: fastCfg()}
	out, err := d.Solve(inst.Reduction, rng.New(95))
	if err != nil {
		t.Fatal(err)
	}
	dE := metrics.DeltaEForIsing(inst.Reduction.Ising, out.Best.Energy, inst.GroundEnergy)
	if dE > 15 {
		t.Fatalf("decomposition left ΔE%% = %v on a 72-spin instance", dE)
	}
}
