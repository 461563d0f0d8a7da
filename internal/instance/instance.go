// Package instance synthesizes and serializes MIMO detection instances —
// the experimental workload of §4.2: random transmitted symbols for a
// chosen user count and modulation, sent over a unit-gain random-phase
// channel, with AWGN optionally excluded exactly as the paper does.
//
// Every instance carries its ground truth: in the noiseless setting the
// transmitted vector is the ML optimum, so its spin encoding is the
// Ising ground state (energy ≈ 0 before offset stripping); with noise the
// sphere decoder supplies the exact ML optimum instead.
package instance

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/linalg"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/rng"
)

// Spec declares one instance's workload parameters.
type Spec struct {
	Users int
	// Antennas is the base station's receive-antenna count; 0 means
	// Users (the paper's square setting). Massive-MIMO configurations set
	// Antennas > Users, which conditions the channel and eases detection.
	Antennas      int
	Scheme        modulation.Scheme
	Channel       channel.Model
	NoiseVariance float64
	// Correlation applies Kronecker antenna correlation (exponential
	// model, ρ = Correlation) on top of a Rayleigh draw; 0 disables it.
	// Only meaningful with Channel == Rayleigh.
	Correlation float64
	Seed        uint64
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Users <= 0 {
		return fmt.Errorf("instance: non-positive user count %d", s.Users)
	}
	if s.Antennas < 0 || (s.Antennas > 0 && s.Antennas < s.Users) {
		return fmt.Errorf("instance: %d antennas cannot serve %d users", s.Antennas, s.Users)
	}
	if s.NoiseVariance < 0 {
		return fmt.Errorf("instance: negative noise variance")
	}
	if s.Correlation < 0 || s.Correlation >= 1 {
		return fmt.Errorf("instance: correlation %g must lie in [0, 1)", s.Correlation)
	}
	if s.Correlation > 0 && s.Channel != channel.Rayleigh {
		return fmt.Errorf("instance: correlation requires the Rayleigh channel model")
	}
	return nil
}

// Instance is a fully materialized detection problem with ground truth.
type Instance struct {
	Spec        Spec
	Problem     *mimo.Problem
	Transmitted []complex128
	// Reduction is the problem's Ising form with spin layout.
	Reduction *mimo.Reduction
	// GroundSpins/GroundEnergy witness the Ising global optimum.
	GroundSpins  []int8
	GroundEnergy float64
	// Optimal holds the ML-optimal symbols (== Transmitted when
	// noiseless).
	Optimal []complex128
}

// Synthesize materializes an instance from its spec, deterministically in
// the spec's seed.
func Synthesize(spec Spec) (*Instance, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(spec.Seed)
	nr := spec.Antennas
	if nr == 0 {
		nr = spec.Users
	}
	var h *linalg.CMatrix
	if spec.Correlation > 0 {
		var err error
		h, err = channel.DrawCorrelated(r.SplitString("channel"), nr, spec.Users, spec.Correlation)
		if err != nil {
			return nil, err
		}
	} else {
		h = channel.Draw(spec.Channel, r.SplitString("channel"), nr, spec.Users)
	}
	x, _ := mimo.RandomSymbols(r.SplitString("symbols"), spec.Scheme, spec.Users)
	y := channel.Transmit(r.SplitString("noise"), h, x, spec.NoiseVariance)
	p := &mimo.Problem{H: h, Y: y, Scheme: spec.Scheme}
	red, err := mimo.Reduce(p)
	if err != nil {
		return nil, err
	}
	inst := &Instance{Spec: spec, Problem: p, Transmitted: x, Reduction: red}
	if spec.NoiseVariance == 0 {
		inst.Optimal = x
	} else {
		opt, err := (mimo.SphereDecoder{}).Detect(p)
		if err != nil {
			return nil, fmt.Errorf("instance: ML ground truth: %w", err)
		}
		inst.Optimal = opt
	}
	spins, err := red.EncodeSymbols(inst.Optimal)
	if err != nil {
		return nil, err
	}
	inst.GroundSpins = spins
	inst.GroundEnergy = red.Ising.Energy(spins)
	return inst, nil
}

// Corpus synthesizes count instances with seeds derived from baseSeed.
func Corpus(spec Spec, baseSeed uint64, count int) ([]*Instance, error) {
	if count <= 0 {
		return nil, fmt.Errorf("instance: non-positive corpus size")
	}
	root := rng.New(baseSeed)
	out := make([]*Instance, 0, count)
	for i := 0; i < count; i++ {
		s := spec
		s.Seed = root.Split(uint64(i)).Uint64()
		inst, err := Synthesize(s)
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
	}
	return out, nil
}

// VariableBudgetUsers returns the user count whose reduction has exactly
// target spins under the scheme, or an error when the target is not an
// integer multiple of bits-per-symbol — how the paper's "36-variable
// decoding problems ... for different modulations" are constructed.
func VariableBudgetUsers(s modulation.Scheme, target int) (int, error) {
	b := s.BitsPerSymbol()
	if target <= 0 || target%b != 0 {
		return 0, fmt.Errorf("instance: %d variables not divisible by %s's %d bits/symbol", target, s, b)
	}
	return target / b, nil
}
