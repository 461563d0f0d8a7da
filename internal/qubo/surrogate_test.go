package qubo_test

import (
	"math"
	"testing"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// The fleet tier serves classical surrogate backends (parallel
// tempering, simulated annealing) as first-class devices, so their
// correctness on small instances is load-bearing: this file pins every
// heuristic solver against exhaustive enumeration over a table of
// instance families, and pins their determinism under a fixed seed.

// surrogateInstances builds the small-instance table: each family
// stresses a different failure mode of a local-move solver.
func surrogateInstances(t *testing.T) []struct {
	name string
	is   *qubo.Ising
} {
	t.Helper()
	ferro := qubo.NewIsing(8)
	for i := 0; i < ferro.N; i++ {
		ferro.SetCoupling(i, (i+1)%ferro.N, -1)
	}
	// Odd antiferromagnetic ring: frustrated, degenerate ground manifold.
	frus := qubo.NewIsing(7)
	for i := 0; i < frus.N; i++ {
		frus.SetCoupling(i, (i+1)%frus.N, 1)
	}
	fields := qubo.NewIsing(6)
	r := rng.New(41)
	for i := range fields.H {
		fields.H[i] = 2*r.Float64() - 1
	}
	return []struct {
		name string
		is   *qubo.Ising
	}{
		{"ferro-ring", ferro},
		{"frustrated-ring", frus},
		{"fields-only", fields},
		{"random-dense", randomDenseIsing(rng.New(42), 9, 1.0)},
		{"random-sparse", randomDenseIsing(rng.New(43), 10, 0.3)},
	}
}

// TestSurrogatesReachExhaustiveGround: every classical surrogate must
// find the exhaustive ground energy on every small-instance family, and
// every returned sample must be self-consistent (Energy matches Spins).
func TestSurrogatesReachExhaustiveGround(t *testing.T) {
	solvers := []struct {
		name string
		run  func(is *qubo.Ising, r *rng.Source) qubo.Sample
	}{
		{"simulated-annealing", func(is *qubo.Ising, r *rng.Source) qubo.Sample {
			return qubo.SimulatedAnnealing(is, r, qubo.SAOptions{Sweeps: 400})
		}},
		{"simulated-annealing-from", func(is *qubo.Ising, r *rng.Source) qubo.Sample {
			start := make([]int8, is.N)
			for i := range start {
				start[i] = 1
			}
			return qubo.SimulatedAnnealingFrom(is, r, start, qubo.SAOptions{Sweeps: 400})
		}},
		{"parallel-tempering", func(is *qubo.Ising, r *rng.Source) qubo.Sample {
			return qubo.ParallelTempering(is, r, qubo.PTOptions{Replicas: 4, Sweeps: 200})
		}},
		{"tabu", func(is *qubo.Ising, r *rng.Source) qubo.Sample {
			return qubo.TabuSearch(is, r, qubo.TabuOptions{})
		}},
		{"multi-start-descent", func(is *qubo.Ising, r *rng.Source) qubo.Sample {
			return qubo.MultiStartGroundEstimate(is, r, 30)
		}},
	}
	for _, inst := range surrogateInstances(t) {
		want, err := qubo.ExhaustiveIsing(inst.is)
		if err != nil {
			t.Fatal(err)
		}
		for _, sv := range solvers {
			t.Run(inst.name+"/"+sv.name, func(t *testing.T) {
				got := sv.run(inst.is, rng.New(7))
				if math.Abs(got.Energy-inst.is.Energy(got.Spins)) > 1e-9 {
					t.Fatalf("sample inconsistent: reports %v, spins give %v",
						got.Energy, inst.is.Energy(got.Spins))
				}
				if got.Energy > want.Energy+1e-9 {
					t.Fatalf("ground missed: %v vs exhaustive %v", got.Energy, want.Energy)
				}
			})
		}
	}
}

// TestSurrogatesDeterministic: the fleet's plan/execute determinism
// contract requires every surrogate to be a pure function of (instance,
// seed) — same seed, bit-identical sample.
func TestSurrogatesDeterministic(t *testing.T) {
	is := randomDenseIsing(rng.New(44), 10, 0.6)
	run := func(seed uint64) []qubo.Sample {
		return []qubo.Sample{
			qubo.SimulatedAnnealing(is, rng.New(seed), qubo.SAOptions{Sweeps: 50}),
			qubo.ParallelTempering(is, rng.New(seed), qubo.PTOptions{Replicas: 3, Sweeps: 40}),
			qubo.TabuSearch(is, rng.New(seed), qubo.TabuOptions{Iterations: 80}),
			qubo.MultiStartGroundEstimate(is, rng.New(seed), 5),
		}
	}
	a, b := run(9), run(9)
	for k := range a {
		if a[k].Energy != b[k].Energy {
			t.Fatalf("solver %d energy differs across identical seeds", k)
		}
		for i := range a[k].Spins {
			if a[k].Spins[i] != b[k].Spins[i] {
				t.Fatalf("solver %d spin %d differs across identical seeds", k, i)
			}
		}
	}
	c := run(10)
	same := true
	for k := range a {
		if a[k].Energy != c[k].Energy {
			same = false
		}
	}
	if same {
		t.Fatal("all solvers returned identical energies across different seeds")
	}
}

// TestIsingContentHashAndEqual pins the content-identity contract
// perfbench's trace replay relies on to dedup compiles, its remaining
// consumer: equal content hashes equal, and any content mutation flips
// Equal (and, in practice, the hash).
func TestIsingContentHashAndEqual(t *testing.T) {
	base := randomDenseIsing(rng.New(45), 6, 1.0)
	clone := base.Clone()
	if !base.Equal(clone) {
		t.Fatal("clone not Equal to original")
	}
	if base.ContentHash() != clone.ContentHash() {
		t.Fatal("equal models hash differently")
	}
	mutations := []struct {
		name string
		mut  func(is *qubo.Ising)
	}{
		{"field", func(is *qubo.Ising) { is.H[2] += 0.5 }},
		{"coupling", func(is *qubo.Ising) { is.SetCoupling(0, 1, 3.25) }},
		{"offset", func(is *qubo.Ising) { is.Offset += 1 }},
		{"edge-removed", func(is *qubo.Ising) { is.SetCoupling(0, 1, 0) }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			mutated := base.Clone()
			m.mut(mutated)
			if base.Equal(mutated) {
				t.Fatal("mutated model still Equal")
			}
			if base.ContentHash() == mutated.ContentHash() {
				t.Fatal("mutated model still hashes equal")
			}
		})
	}
	if qubo.NewIsing(3).Equal(qubo.NewIsing(4)) {
		t.Fatal("different sizes Equal")
	}
}
