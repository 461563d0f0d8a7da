// Package qaoa implements the Quantum Approximate Optimization Algorithm
// — the gate-model (digital) NISQ approach the paper's §2 names alongside
// quantum annealing ("while QA and QAOA are different hardware... both
// methods work on classical combinatorial problems") — as an exact
// statevector simulation for problems up to ~20 qubits.
//
// A depth-p QAOA circuit prepares |+⟩^n and alternates the cost unitary
// e^{−iγ_k·H_C} (diagonal in the computational basis, H_C the Ising cost)
// with the transverse mixer e^{−iβ_k·Σσˣ}. Measuring yields bitstrings
// with probability |amplitude|²; performance is the expected cost and
// the ground-state probability, optimized over the 2p angles.
//
// Unlike the annealer simulation, nothing here is a surrogate: the
// statevector evolution is the exact physics of an ideal (noiseless)
// gate-model device, which is why it is capped at small problems.
package qaoa

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// MaxQubits bounds the statevector simulation (2^20 amplitudes ≈ 16 MiB).
const MaxQubits = 20

// Circuit is a compiled QAOA instance: the problem's per-basis-state
// energies plus workspace.
type Circuit struct {
	n        int
	energies []float64 // E(z) for every basis state z (bit i of z = spin i)
	offset   float64
	ground   float64
	groundIx []int
}

// Compile precomputes the diagonal cost spectrum of an Ising problem.
// Spin i maps to qubit i with |0⟩ ↔ s_i = −1 and |1⟩ ↔ s_i = +1.
func Compile(is *qubo.Ising) (*Circuit, error) {
	if is.N > MaxQubits {
		return nil, fmt.Errorf("qaoa: %d qubits exceed the statevector limit %d", is.N, MaxQubits)
	}
	if is.N == 0 {
		return nil, fmt.Errorf("qaoa: empty problem")
	}
	n := is.N
	size := 1 << uint(n)
	energies := make([]float64, size)
	// Gray-code walk: incremental single-spin flips give O(2^n·deg)
	// total instead of O(2^n·n²).
	spins := make([]int8, n)
	for i := range spins {
		spins[i] = -1
	}
	e := is.Energy(spins)
	// The all-(−1) configuration is basis state 0.
	energies[0] = e
	for k := 1; k < size; k++ {
		// Standard binary-reflected Gray sequence: state g differs from
		// its predecessor in exactly one bit.
		g := k ^ (k >> 1)
		prev := (k - 1) ^ ((k - 1) >> 1)
		bit := trailingZeros(uint(g ^ prev))
		e += is.FlipDelta(spins, bit)
		spins[bit] = -spins[bit]
		energies[g] = e
	}
	c := &Circuit{n: n, energies: energies, offset: is.Offset}
	c.ground = energies[0]
	for _, v := range energies {
		if v < c.ground {
			c.ground = v
		}
	}
	for z, v := range energies {
		if v <= c.ground+1e-12 {
			c.groundIx = append(c.groundIx, z)
		}
	}
	return c, nil
}

func trailingZeros(x uint) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// Run evolves the depth-p circuit with angle schedules gammas and betas
// (equal lengths) and returns the final statevector.
func (c *Circuit) Run(gammas, betas []float64) ([]complex128, error) {
	if len(gammas) != len(betas) || len(gammas) == 0 {
		return nil, fmt.Errorf("qaoa: need equal, non-empty angle schedules")
	}
	size := 1 << uint(c.n)
	state := make([]complex128, size)
	amp := complex(1/math.Sqrt(float64(size)), 0)
	for i := range state {
		state[i] = amp
	}
	for layer := range gammas {
		c.applyCost(state, gammas[layer])
		applyMixer(state, c.n, betas[layer])
	}
	return state, nil
}

// applyCost multiplies each amplitude by e^{−iγ·E(z)} (the offset is a
// global phase; it is kept for simplicity — it cancels in probabilities).
func (c *Circuit) applyCost(state []complex128, gamma float64) {
	for z := range state {
		state[z] *= cmplx.Exp(complex(0, -gamma*c.energies[z]))
	}
}

// applyMixer applies RX(2β) = e^{−iβσˣ} to every qubit: the butterfly
// a' = cos(β)·a − i·sin(β)·b, b' = cos(β)·b − i·sin(β)·a over amplitude
// pairs differing in one bit.
func applyMixer(state []complex128, n int, beta float64) {
	cos := complex(math.Cos(beta), 0)
	msin := complex(0, -math.Sin(beta))
	for q := 0; q < n; q++ {
		bit := 1 << uint(q)
		for z := range state {
			if z&bit != 0 {
				continue
			}
			a, b := state[z], state[z|bit]
			state[z] = cos*a + msin*b
			state[z|bit] = cos*b + msin*a
		}
	}
}

// EnergyOf returns the compiled cost of basis state z (bit i of z = spin
// i, |1⟩ ↔ s_i = +1).
func (c *Circuit) EnergyOf(z int) float64 { return c.energies[z] }

// SpinsOf decodes basis state z into a ±1 spin vector.
func (c *Circuit) SpinsOf(z int) []int8 {
	spins := make([]int8, c.n)
	for i := range spins {
		if z&(1<<uint(i)) != 0 {
			spins[i] = 1
		} else {
			spins[i] = -1
		}
	}
	return spins
}

// SampleState draws one measurement outcome (a basis-state index) from the
// statevector's |amplitude|² distribution via inverse-CDF on a single
// uniform draw — one deterministic Uint64 per sample regardless of where
// the mass lands.
func SampleState(state []complex128, r *rng.Source) int {
	u := r.Float64()
	acc := 0.0
	for z, a := range state {
		acc += real(a)*real(a) + imag(a)*imag(a)
		if u < acc {
			return z
		}
	}
	// Floating-point shortfall: the CDF summed below 1; return the last
	// state.
	return len(state) - 1
}

// Result summarizes one angle setting's performance.
type Result struct {
	Gammas, Betas []float64
	// ExpectedCost is ⟨H_C⟩ in the final state.
	ExpectedCost float64
	// SuccessProbability is the total probability of measuring a ground
	// state — the p★ analogue Eq. 2's TTS consumes.
	SuccessProbability float64
}

// Evaluate runs the circuit and scores it.
func (c *Circuit) Evaluate(gammas, betas []float64) (*Result, error) {
	state, err := c.Run(gammas, betas)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Gammas: append([]float64(nil), gammas...),
		Betas:  append([]float64(nil), betas...),
	}
	for z, a := range state {
		p := real(a)*real(a) + imag(a)*imag(a)
		res.ExpectedCost += p * c.energies[z]
	}
	for _, z := range c.groundIx {
		a := state[z]
		res.SuccessProbability += real(a)*real(a) + imag(a)*imag(a)
	}
	return res, nil
}

// OptimizeGrid searches a depth-1 angle grid (the standard classical
// outer loop at p=1) and returns the best Result by expected cost.
// gridSize points per axis; γ ∈ (0, γMax], β ∈ (0, π/2].
func (c *Circuit) OptimizeGrid(gridSize int, gammaMax float64) (*Result, error) {
	return c.optimizeGrid(gridSize, gammaMax, func(a, b *Result) bool {
		return a.ExpectedCost < b.ExpectedCost
	})
}

// OptimizeGridOracle is OptimizeGrid selecting by ground-state
// probability instead of expected cost — an oracle a physical outer loop
// cannot implement (the ground state is unknown), reported as the method's
// best achievable p★, symmetric to the FR-oracle c_p search of Figure 8.
func (c *Circuit) OptimizeGridOracle(gridSize int, gammaMax float64) (*Result, error) {
	return c.optimizeGrid(gridSize, gammaMax, func(a, b *Result) bool {
		return a.SuccessProbability > b.SuccessProbability
	})
}

func (c *Circuit) optimizeGrid(gridSize int, gammaMax float64, better func(a, b *Result) bool) (*Result, error) {
	if gridSize < 2 {
		return nil, fmt.Errorf("qaoa: grid size must be at least 2")
	}
	if gammaMax <= 0 {
		gammaMax = math.Pi
	}
	var best *Result
	for i := 1; i <= gridSize; i++ {
		gamma := gammaMax * float64(i) / float64(gridSize)
		for j := 1; j <= gridSize; j++ {
			beta := (math.Pi / 2) * float64(j) / float64(gridSize)
			res, err := c.Evaluate([]float64{gamma}, []float64{beta})
			if err != nil {
				return nil, err
			}
			if best == nil || better(res, best) {
				best = res
			}
		}
	}
	return best, nil
}

// ExtendDepth greedily appends layers: starting from a p-layer schedule,
// each new layer's angles are grid-searched with earlier layers frozen —
// a cheap layerwise training strategy that monotonically improves the
// expected cost.
func (c *Circuit) ExtendDepth(base *Result, layers, gridSize int, gammaMax float64) (*Result, error) {
	if base == nil {
		return nil, fmt.Errorf("qaoa: nil base schedule")
	}
	if gammaMax <= 0 {
		gammaMax = math.Pi
	}
	cur := base
	for l := 0; l < layers; l++ {
		var best *Result
		for i := 1; i <= gridSize; i++ {
			gamma := gammaMax * float64(i) / float64(gridSize)
			for j := 1; j <= gridSize; j++ {
				beta := (math.Pi / 2) * float64(j) / float64(gridSize)
				res, err := c.Evaluate(
					append(append([]float64(nil), cur.Gammas...), gamma),
					append(append([]float64(nil), cur.Betas...), beta),
				)
				if err != nil {
					return nil, err
				}
				if best == nil || res.ExpectedCost < best.ExpectedCost {
					best = res
				}
			}
		}
		// Keep the deeper schedule only if it does not regress.
		if best.ExpectedCost <= cur.ExpectedCost {
			cur = best
		}
	}
	return cur, nil
}
