package qubo

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// The math.Exp forms of the two Metropolis solvers, kept verbatim as the
// specification the exp-bracket versions must reproduce bit for bit.

func mathExpSimulatedAnnealingFrom(is *Ising, r *rng.Source, start []int8, opts SAOptions) Sample {
	opts = opts.withDefaults()
	spins := append([]int8(nil), start...)
	energy := is.Energy(spins)
	best := append([]int8(nil), spins...)
	bestEnergy := energy

	field := make([]float64, is.N)
	for i := range field {
		field[i] = is.LocalField(spins, i)
	}
	ratio := 1.0
	if opts.Sweeps > 1 {
		ratio = math.Pow(opts.BetaEnd/opts.BetaStart, 1/float64(opts.Sweeps-1))
	}
	beta := opts.BetaStart
	for sweep := 0; sweep < opts.Sweeps; sweep++ {
		for k := 0; k < is.N; k++ {
			i := r.Intn(is.N)
			delta := -2 * float64(spins[i]) * field[i]
			if delta <= 0 || r.Float64() < math.Exp(-beta*delta) {
				spins[i] = -spins[i]
				energy += delta
				for _, c := range is.Adj[i] {
					field[c.To] += 2 * c.J * float64(spins[i])
				}
				if energy < bestEnergy {
					bestEnergy = energy
					copy(best, spins)
				}
			}
		}
		beta *= ratio
	}
	return Sample{Spins: best, Energy: bestEnergy}
}

func mathExpParallelTempering(is *Ising, r *rng.Source, opts PTOptions) Sample {
	opts = opts.WithDefaults()
	k := opts.Replicas
	betas := make([]float64, k)
	ratio := math.Pow(opts.BetaMax/opts.BetaMin, 1/float64(k-1))
	b := opts.BetaMin
	for i := range betas {
		betas[i] = b
		b *= ratio
	}
	spins := make([][]int8, k)
	fields := make([][]float64, k)
	energy := make([]float64, k)
	for i := 0; i < k; i++ {
		spins[i] = RandomSample(is, r.Split(uint64(i))).Spins
		fields[i] = make([]float64, is.N)
		for j := 0; j < is.N; j++ {
			fields[i][j] = is.LocalField(spins[i], j)
		}
		energy[i] = is.Energy(spins[i])
	}
	best := Sample{Spins: append([]int8(nil), spins[k-1]...), Energy: energy[k-1]}
	for i := 0; i < k; i++ {
		if energy[i] < best.Energy {
			best = Sample{Spins: append([]int8(nil), spins[i]...), Energy: energy[i]}
		}
	}

	mc := r.SplitString("mc")
	for sweep := 0; sweep < opts.Sweeps; sweep++ {
		for i := 0; i < k; i++ {
			beta := betas[i]
			sp, f := spins[i], fields[i]
			for m := 0; m < is.N; m++ {
				j := mc.Intn(is.N)
				delta := -2 * float64(sp[j]) * f[j]
				if delta <= 0 || mc.Float64() < math.Exp(-beta*delta) {
					sp[j] = -sp[j]
					energy[i] += delta
					for _, c := range is.Adj[j] {
						f[c.To] += 2 * c.J * float64(sp[j])
					}
					if energy[i] < best.Energy {
						best = Sample{Spins: append([]int8(nil), sp...), Energy: energy[i]}
					}
				}
			}
		}
		if sweep%opts.SwapInterval == 0 {
			for i := 0; i+1 < k; i++ {
				d := (betas[i] - betas[i+1]) * (energy[i] - energy[i+1])
				if d >= 0 || mc.Float64() < math.Exp(d) {
					spins[i], spins[i+1] = spins[i+1], spins[i]
					fields[i], fields[i+1] = fields[i+1], fields[i]
					energy[i], energy[i+1] = energy[i+1], energy[i]
				}
			}
		}
	}
	return best
}

// TestMetropolisBracketMatchesMathExp pins SimulatedAnnealingFrom and
// ParallelTempering to their math.Exp forms over several seeds, sizes
// and temperature ranges: the same best sample and the same final RNG
// state, so every accept decision — PT's replica swaps included — and
// the draw order are unchanged. The temperature ladders span frozen
// (every uphill move far into the bracket's tail) to hot (most moves
// accepted) so every bracket branch is exercised.
func TestMetropolisBracketMatchesMathExp(t *testing.T) {
	for _, n := range []int{3, 12, 40} {
		for seed := uint64(1); seed <= 4; seed++ {
			is := randomQUBO(rng.New(seed*7919+uint64(n)), n, 4).ToIsing()
			for _, betas := range [][2]float64{{0.05, 3}, {0.5, 50}, {5, 2000}} {
				name := fmt.Sprintf("n=%d/seed=%d/beta=%g-%g", n, seed, betas[0], betas[1])
				start := RandomSample(is, rng.New(seed)).Spins

				sa := SAOptions{Sweeps: 60, BetaStart: betas[0], BetaEnd: betas[1]}
				ra, rb := rng.New(seed), rng.New(seed)
				got := SimulatedAnnealingFrom(is, ra, start, sa)
				want := mathExpSimulatedAnnealingFrom(is, rb, start, sa)
				if !reflect.DeepEqual(got, want) || ra.Uint64() != rb.Uint64() {
					t.Fatalf("%s: SA diverges from the math.Exp form: %+v vs %+v", name, got, want)
				}

				pt := PTOptions{Replicas: 6, Sweeps: 40, BetaMin: betas[0], BetaMax: betas[1], SwapInterval: 1}
				ra, rb = rng.New(seed), rng.New(seed)
				got = ParallelTempering(is, ra, pt)
				want = mathExpParallelTempering(is, rb, pt)
				if !reflect.DeepEqual(got, want) || ra.Uint64() != rb.Uint64() {
					t.Fatalf("%s: PT diverges from the math.Exp form: %+v vs %+v", name, got, want)
				}
			}
		}
	}
}
