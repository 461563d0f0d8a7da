package qubo

import (
	"math"

	"repro/internal/metropolis"
	"repro/internal/rng"
)

// PTOptions configures parallel tempering (replica-exchange Monte Carlo,
// Swendsen & Wang's replica method — the paper's reference [48] among
// the "quantum-inspired algorithms" it positions against quantum
// hardware).
type PTOptions struct {
	// Replicas is the temperature-ladder size (default 8).
	Replicas int
	// Sweeps is the Metropolis sweeps per replica (default 500).
	Sweeps int
	// BetaMin/BetaMax bound the geometric inverse-temperature ladder
	// (defaults 0.1 and 10).
	BetaMin, BetaMax float64
	// SwapInterval is the sweeps between exchange attempts (default 5).
	SwapInterval int
}

// WithDefaults returns o with every unset field at the value
// ParallelTempering would use, so a re-implementation of the same
// dynamics (annealer.ParallelTemperingGroup) resolves options exactly
// as the one-read path does.
func (o PTOptions) WithDefaults() PTOptions {
	if o.Replicas <= 1 {
		o.Replicas = 8
	}
	if o.Sweeps <= 0 {
		o.Sweeps = 500
	}
	if o.BetaMin <= 0 {
		o.BetaMin = 0.1
	}
	if o.BetaMax <= o.BetaMin {
		o.BetaMax = o.BetaMin * 100
	}
	if o.SwapInterval <= 0 {
		o.SwapInterval = 5
	}
	return o
}

// AppendBetas appends the geometric inverse-temperature ladder of o
// (defaults resolved) to dst: Replicas values from BetaMin, each the
// previous one times (BetaMax/BetaMin)^(1/(Replicas−1)).
func (o PTOptions) AppendBetas(dst []float64) []float64 {
	o = o.WithDefaults()
	ratio := math.Pow(o.BetaMax/o.BetaMin, 1/float64(o.Replicas-1))
	b := o.BetaMin
	for i := 0; i < o.Replicas; i++ {
		dst = append(dst, b)
		b *= ratio
	}
	return dst
}

// ParallelTempering runs replica-exchange Metropolis dynamics and returns
// the best configuration seen. Hot replicas cross barriers, cold replicas
// refine, and exchanges shuttle good configurations down the ladder —
// the strongest general-purpose classical sampler in this package.
func ParallelTempering(is *Ising, r *rng.Source, opts PTOptions) Sample {
	opts = opts.WithDefaults()
	k := opts.Replicas
	betas := opts.AppendBetas(make([]float64, 0, k))
	// Per-replica state, local fields, and energy.
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
				if delta <= 0 || metropolis.Accept(mc.Float64(), beta*delta) {
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
		// Replica exchange between adjacent temperatures.
		if sweep%opts.SwapInterval == 0 {
			for i := 0; i+1 < k; i++ {
				d := (betas[i] - betas[i+1]) * (energy[i] - energy[i+1])
				if d >= 0 || metropolis.Accept(mc.Float64(), -d) {
					spins[i], spins[i+1] = spins[i+1], spins[i]
					fields[i], fields[i+1] = fields[i+1], fields[i]
					energy[i], energy[i+1] = energy[i+1], energy[i]
				}
			}
		}
	}
	return best
}
