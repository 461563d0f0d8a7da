package qaoa

import (
	"math"
	"testing"

	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

func randomIsing(seed uint64, n int) *qubo.Ising {
	r := rng.New(seed)
	is := qubo.NewIsing(n)
	for i := 0; i < n; i++ {
		is.H[i] = r.NormFloat64() * 0.4
		for j := i + 1; j < n; j++ {
			is.SetCoupling(i, j, r.NormFloat64()*0.6)
		}
	}
	return is
}

func TestCompileValidation(t *testing.T) {
	if _, err := Compile(qubo.NewIsing(0)); err == nil {
		t.Fatal("empty problem accepted")
	}
	if _, err := Compile(qubo.NewIsing(MaxQubits + 1)); err == nil {
		t.Fatal("oversized problem accepted")
	}
}

// TestCompileSpectrum: the compiled per-basis-state energies match direct
// evaluation, and the ground energy matches exhaustive search.
func TestCompileSpectrum(t *testing.T) {
	is := randomIsing(1, 8)
	c, err := Compile(is)
	if err != nil {
		t.Fatal(err)
	}
	spins := make([]int8, 8)
	for z := 0; z < 1<<8; z++ {
		for i := 0; i < 8; i++ {
			if z>>uint(i)&1 == 1 {
				spins[i] = 1
			} else {
				spins[i] = -1
			}
		}
		if math.Abs(c.energies[z]-is.Energy(spins)) > 1e-9 {
			t.Fatalf("spectrum wrong at %d: %v vs %v", z, c.energies[z], is.Energy(spins))
		}
	}
	g, err := qubo.ExhaustiveIsing(is)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.ground-g.Energy) > 1e-9 {
		t.Fatalf("ground %v vs exhaustive %v", c.ground, g.Energy)
	}
}

// TestNormalizationPreserved: the circuit is unitary — total probability
// stays 1 through arbitrary schedules.
func TestNormalizationPreserved(t *testing.T) {
	is := randomIsing(2, 10)
	c, err := Compile(is)
	if err != nil {
		t.Fatal(err)
	}
	state, err := c.Run([]float64{0.7, 1.3, 0.2}, []float64{0.4, 0.9, 1.1})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, a := range state {
		total += real(a)*real(a) + imag(a)*imag(a)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("state norm %v", total)
	}
}

// TestZeroAnglesIsUniform: γ = β = 0 leaves the uniform superposition —
// success probability = (#ground states)/2^n, expected cost = mean cost.
func TestZeroAnglesIsUniform(t *testing.T) {
	is := randomIsing(3, 8)
	c, err := Compile(is)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Evaluate([]float64{0}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, e := range c.energies {
		mean += e
	}
	mean /= float64(len(c.energies))
	if math.Abs(res.ExpectedCost-mean) > 1e-9 {
		t.Fatalf("uniform expected cost %v, want %v", res.ExpectedCost, mean)
	}
	want := float64(len(c.groundIx)) / float64(len(c.energies))
	if math.Abs(res.SuccessProbability-want) > 1e-12 {
		t.Fatalf("uniform success %v, want %v", res.SuccessProbability, want)
	}
}

// TestSingleQubitExact: for H = h·σᶻ (one qubit), p=1 QAOA gives the
// closed-form expectation ⟨H⟩ = h·sin(2β)·sin(2γh).
func TestSingleQubitExact(t *testing.T) {
	h := 0.8
	is := qubo.NewIsing(1)
	is.H[0] = h
	c, err := Compile(is)
	if err != nil {
		t.Fatal(err)
	}
	for _, gamma := range []float64{0.3, 0.9, 1.7} {
		for _, beta := range []float64{0.2, 0.7, 1.2} {
			res, err := c.Evaluate([]float64{gamma}, []float64{beta})
			if err != nil {
				t.Fatal(err)
			}
			want := h * math.Sin(2*beta) * math.Sin(2*gamma*h)
			if math.Abs(res.ExpectedCost-want) > 1e-9 {
				t.Fatalf("γ=%v β=%v: ⟨H⟩ = %v, want %v", gamma, beta, res.ExpectedCost, want)
			}
		}
	}
}

// TestOptimizeGridBeatsUniform: the optimized p=1 schedule must lower
// the expected cost and raise the success probability vs γ=β=0.
func TestOptimizeGridBeatsUniform(t *testing.T) {
	is := randomIsing(5, 10)
	c, err := Compile(is)
	if err != nil {
		t.Fatal(err)
	}
	uniform, _ := c.Evaluate([]float64{0}, []float64{0})
	best, err := c.OptimizeGrid(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.ExpectedCost >= uniform.ExpectedCost {
		t.Fatalf("optimized cost %v not below uniform %v", best.ExpectedCost, uniform.ExpectedCost)
	}
	if best.SuccessProbability <= uniform.SuccessProbability {
		t.Fatalf("optimized success %v not above uniform %v", best.SuccessProbability, uniform.SuccessProbability)
	}
}

// TestExtendDepthMonotone: layerwise extension never regresses the
// expected cost and typically improves it.
func TestExtendDepthMonotone(t *testing.T) {
	is := randomIsing(7, 8)
	c, err := Compile(is)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := c.OptimizeGrid(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := c.ExtendDepth(p1, 2, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p3.ExpectedCost > p1.ExpectedCost+1e-12 {
		t.Fatalf("deeper schedule regressed: %v vs %v", p3.ExpectedCost, p1.ExpectedCost)
	}
	if len(p3.Gammas) < len(p1.Gammas) {
		t.Fatal("depth not extended")
	}
}

// TestQAOAOnMIMOInstance: the full pipeline — a 3-user QPSK detection
// (12 qubits) compiled and optimized; success probability must beat
// random guessing by a wide margin.
func TestQAOAOnMIMOInstance(t *testing.T) {
	inst, err := instance.Synthesize(instance.Spec{Users: 3, Scheme: modulation.QPSK, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(inst.Reduction.Ising)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.ground-inst.GroundEnergy) > 1e-6 {
		t.Fatalf("compiled ground %v vs instance %v", c.ground, inst.GroundEnergy)
	}
	best, err := c.OptimizeGrid(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := c.ExtendDepth(best, 2, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	random := 1.0 / float64(int(1)<<12)
	if deep.SuccessProbability < 10*random {
		t.Fatalf("QAOA success %v barely above random %v", deep.SuccessProbability, random)
	}
}

func TestRunValidation(t *testing.T) {
	is := randomIsing(9, 4)
	c, _ := Compile(is)
	if _, err := c.Run(nil, nil); err == nil {
		t.Fatal("empty schedules accepted")
	}
	if _, err := c.Run([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched schedules accepted")
	}
	if _, err := c.OptimizeGrid(1, 0); err == nil {
		t.Fatal("degenerate grid accepted")
	}
	if _, err := c.ExtendDepth(nil, 1, 4, 0); err == nil {
		t.Fatal("nil base accepted")
	}
}

func BenchmarkQAOARun12(b *testing.B) {
	is := randomIsing(1, 12)
	c, err := Compile(is)
	if err != nil {
		b.Fatal(err)
	}
	gammas := []float64{0.5, 0.8}
	betas := []float64{0.4, 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(gammas, betas); err != nil {
			b.Fatal(err)
		}
	}
}
