package qaoa

import (
	"math"
	"testing"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// TestFixedDepthSmoke is the fleet backend's exact pipeline at fixed
// depth: compile, depth-1 grid search, greedy extension to depth 2, then
// measurement sampling — asserting the invariants the qaoa backend
// relies on (spectrum consistency, spin decoding, sample validity).
func TestFixedDepthSmoke(t *testing.T) {
	is := randomIsing(21, 6)
	c, err := Compile(is)
	if err != nil {
		t.Fatal(err)
	}
	if c.n != 6 {
		t.Fatalf("compiled %d qubits, want 6", c.n)
	}
	base, err := c.OptimizeGrid(4, math.Pi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.ExtendDepth(base, 1, 4, math.Pi)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpectedCost > base.ExpectedCost+1e-12 {
		t.Fatalf("depth-2 cost %v regressed from depth-1 %v", res.ExpectedCost, base.ExpectedCost)
	}
	state, err := c.Run(res.Gammas, res.Betas)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	for k := 0; k < 50; k++ {
		z := SampleState(state, r)
		if z < 0 || z >= len(state) {
			t.Fatalf("sampled state %d out of range", z)
		}
		spins := c.SpinsOf(z)
		if math.Abs(c.EnergyOf(z)-is.Energy(spins)) > 1e-9 {
			t.Fatalf("state %d: EnergyOf %v but decoded spins give %v",
				z, c.EnergyOf(z), is.Energy(spins))
		}
		if c.EnergyOf(z) < c.ground-1e-9 {
			t.Fatalf("state %d below ground energy", z)
		}
	}
}

// TestSampleStateDistribution pins the inverse-CDF sampler: concentrated
// states always return their index, sampling is seed-deterministic, and
// the floating-point shortfall path returns the last state.
func TestSampleStateDistribution(t *testing.T) {
	// All mass on basis state 2.
	state := make([]complex128, 4)
	state[2] = 1
	for k := 0; k < 10; k++ {
		if z := SampleState(state, rng.New(uint64(k))); z != 2 {
			t.Fatalf("concentrated state sampled %d", z)
		}
	}
	// Uniform two-state superposition: both outcomes must appear, and the
	// draw sequence must be a pure function of the seed.
	half := complex(1/math.Sqrt2, 0)
	uniform := []complex128{half, half}
	counts := [2]int{}
	ra, rb := rng.New(3), rng.New(3)
	for k := 0; k < 200; k++ {
		za, zb := SampleState(uniform, ra), SampleState(uniform, rb)
		if za != zb {
			t.Fatal("identical seeds sampled different sequences")
		}
		counts[za]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("uniform superposition never sampled one side: %v", counts)
	}
	// Sub-normalized vector: the CDF never reaches the draw, so the
	// sampler falls back to the final state.
	if z := SampleState(make([]complex128, 3), rng.New(1)); z != 2 {
		t.Fatalf("shortfall fallback returned %d, want 2", z)
	}
}

// TestOptimizeGridOracle: selecting by ground-state probability can only
// improve p★ over selecting by expected cost on the same grid.
func TestOptimizeGridOracle(t *testing.T) {
	c, err := Compile(randomIsing(22, 5))
	if err != nil {
		t.Fatal(err)
	}
	byCost, err := c.OptimizeGrid(5, math.Pi)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := c.OptimizeGridOracle(5, math.Pi)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.SuccessProbability < byCost.SuccessProbability-1e-12 {
		t.Fatalf("oracle p★ %v below expected-cost p★ %v",
			oracle.SuccessProbability, byCost.SuccessProbability)
	}
	if _, err := c.OptimizeGridOracle(1, math.Pi); err == nil {
		t.Fatal("undersized oracle grid accepted")
	}
}

// TestSpinsOfEncoding pins the bit convention shared with the compiled
// spectrum: bit i of z set ⇔ spin i = +1.
func TestSpinsOfEncoding(t *testing.T) {
	c, err := Compile(qubo.NewIsing(3))
	if err != nil {
		t.Fatal(err)
	}
	spins := c.SpinsOf(0b101)
	want := []int8{1, -1, 1}
	for i := range want {
		if spins[i] != want[i] {
			t.Fatalf("SpinsOf(0b101) = %v, want %v", spins, want)
		}
	}
}
