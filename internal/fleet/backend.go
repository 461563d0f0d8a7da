// Heterogeneous solver backends: the paper's hybrid thesis applied to the
// serving tier. A Device is no longer necessarily a simulated QPU — it can
// be a classical surrogate ("On Quantum Annealing Without a Physical
// Quantum Annealer", arXiv:2307.09695 benchmarks exactly these as
// first-class solvers) or a gate-model QAOA statevector worker. Each kind
// carries its own deterministic timing model (service μs as a pure
// function of problem size and read count) so the plan phase can schedule
// it, and its own quality model (the solver itself, run on plan-fixed RNG
// streams) so the execute phase stays bit-identical at any worker count.
package fleet

import (
	"fmt"
	"math"

	"repro/internal/annealer"
	"repro/internal/qaoa"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// BackendKind selects the solver a Device runs.
type BackendKind int

const (
	// BackendQPUSim is the simulated quantum annealer — the zero value, so
	// existing homogeneous pools are unchanged. Timing comes from the
	// anneal schedule plus the QPU programming/readout overheads; quality
	// from the reverse-anneal engine behind an annealer.Lease.
	BackendQPUSim BackendKind = iota
	// BackendParallelTempering runs qubo.ParallelTempering per read —
	// replica-exchange Monte Carlo, the strongest classical surrogate.
	BackendParallelTempering
	// BackendSimulatedAnnealing runs qubo.SimulatedAnnealingFrom per read
	// (eight reads at a time through annealer.SimulatedAnnealingGroup),
	// seeded from the frame's classical candidate — a cheap local refiner.
	BackendSimulatedAnnealing
	// BackendQAOA compiles the frame onto an exact statevector QAOA
	// circuit, grid-optimizes the angles once, and draws the frame's reads
	// as measurements from the final state. Problems above qaoa.MaxQubits
	// cannot route here.
	BackendQAOA
)

// ParseBackendKind maps the CLI spellings onto backend kinds.
func ParseBackendKind(s string) (BackendKind, error) {
	switch s {
	case "qpu-sim", "qpu":
		return BackendQPUSim, nil
	case "parallel-tempering", "pt":
		return BackendParallelTempering, nil
	case "simulated-annealing", "sa":
		return BackendSimulatedAnnealing, nil
	case "qaoa":
		return BackendQAOA, nil
	}
	return 0, fmt.Errorf("fleet: unknown backend %q (want qpu-sim, parallel-tempering, simulated-annealing, or qaoa)", s)
}

// String names the kind with its CLI spelling.
func (k BackendKind) String() string {
	switch k {
	case BackendQPUSim:
		return "qpu-sim"
	case BackendParallelTempering:
		return "parallel-tempering"
	case BackendSimulatedAnnealing:
		return "simulated-annealing"
	case BackendQAOA:
		return "qaoa"
	}
	return fmt.Sprintf("BackendKind(%d)", int(k))
}

// valid reports whether k is a known kind.
func (k BackendKind) valid() bool {
	return k >= BackendQPUSim && k <= BackendQAOA
}

// Classical reports whether the backend is a classical surrogate (no
// annealer lease, no per-read fault classes).
func (k BackendKind) Classical() bool { return k != BackendQPUSim }

// Class returns the routing class the kind belongs to.
func (k BackendKind) Class() BackendClass {
	if k.Classical() {
		return ClassClassical
	}
	return ClassQuantum
}

// ClassicalParams tunes a classical backend's solver and its timing model.
// The zero value takes serving-scale defaults (smaller than the qubo
// package's offline-analysis defaults: a serving read is a bounded-effort
// restart, not an exhaustive search).
type ClassicalParams struct {
	// OpsPerMicrosecond is the modelled spin-update throughput of the
	// worker (default 2000). Every timing figure divides by it.
	OpsPerMicrosecond float64
	// SetupMicros is the per-batch dispatch overhead in μs (default 50) —
	// the classical analogue of QPU programming time, three orders of
	// magnitude cheaper.
	SetupMicros float64
	// PT tunes parallel-tempering reads (defaults: 4 replicas, 200 sweeps,
	// beta 0.1→10, swap every 5 sweeps).
	PT qubo.PTOptions
	// SA tunes simulated-annealing reads (defaults: 300 sweeps,
	// beta 0.1→10).
	SA qubo.SAOptions
	// QAOADepth and QAOAGrid set the circuit depth and the per-layer angle
	// grid of the QAOA optimization (defaults 2 and 6).
	QAOADepth, QAOAGrid int
}

// withDefaults fills the zero fields. Every knob the timing model reads is
// pinned here so the modelled service time and the executed solver always
// agree (the qubo packages' own defaulting never fires).
func (p ClassicalParams) withDefaults() ClassicalParams {
	if p.OpsPerMicrosecond == 0 {
		p.OpsPerMicrosecond = 2000
	}
	if p.SetupMicros == 0 {
		p.SetupMicros = 50
	}
	if p.PT.Replicas <= 1 {
		p.PT.Replicas = 4
	}
	if p.PT.Sweeps <= 0 {
		p.PT.Sweeps = 200
	}
	if p.PT.BetaMin <= 0 {
		p.PT.BetaMin = 0.1
	}
	if p.PT.BetaMax <= p.PT.BetaMin {
		p.PT.BetaMax = p.PT.BetaMin * 100
	}
	if p.PT.SwapInterval <= 0 {
		p.PT.SwapInterval = 5
	}
	if p.SA.Sweeps <= 0 {
		p.SA.Sweeps = 300
	}
	if p.SA.BetaStart <= 0 {
		p.SA.BetaStart = 0.1
	}
	if p.SA.BetaEnd <= 0 {
		p.SA.BetaEnd = 10
	}
	if p.QAOADepth <= 0 {
		p.QAOADepth = 2
	}
	if p.QAOAGrid < 2 {
		p.QAOAGrid = 6
	}
	return p
}

// validate rejects non-finite or negative knobs (after withDefaults).
func (p ClassicalParams) validate() error {
	if math.IsNaN(p.OpsPerMicrosecond) || math.IsInf(p.OpsPerMicrosecond, 0) || p.OpsPerMicrosecond <= 0 {
		return fmt.Errorf("bad ops rate %g", p.OpsPerMicrosecond)
	}
	if math.IsNaN(p.SetupMicros) || math.IsInf(p.SetupMicros, 0) || p.SetupMicros < 0 {
		return fmt.Errorf("bad setup overhead %g", p.SetupMicros)
	}
	return nil
}

// sweepOps is the modelled spin-update count of one full Metropolis sweep:
// each of the N proposals touches its spin plus the neighbor fields on
// both coupling directions.
func sweepOps(is *qubo.Ising) float64 {
	return float64(is.N + 2*is.NumEdges())
}

// classicalServiceMicros is the deterministic timing model: the μs a
// classical backend is busy serving one frame's reads, excluding the
// per-batch SetupMicros (charged once per programming cycle like QPU
// programming time).
func classicalServiceMicros(kind BackendKind, p ClassicalParams, is *qubo.Ising, reads int) float64 {
	switch kind {
	case BackendSimulatedAnnealing:
		return float64(reads) * float64(p.SA.Sweeps) * sweepOps(is) / p.OpsPerMicrosecond
	case BackendParallelTempering:
		return float64(reads) * float64(p.PT.Replicas) * float64(p.PT.Sweeps) * sweepOps(is) / p.OpsPerMicrosecond
	case BackendQAOA:
		// The grid optimization dominates: depth × grid² statevector
		// evolutions over 2^N amplitudes, run once per frame; each read is
		// then an O(N) measurement draw.
		states := math.Pow(2, float64(is.N))
		opt := float64(p.QAOADepth) * float64(p.QAOAGrid*p.QAOAGrid) * states
		return (opt + float64(reads)*float64(is.N)) / p.OpsPerMicrosecond
	}
	return 0
}

// runClassical executes one frame's planned reads on a classical backend
// with the plan-fixed RNG stream and returns the best sample across reads
// plus the mean best-of-read energy (the quality telemetry analogue of the
// anneal's mean sample energy). It is a pure function of its arguments, so
// the execute phase can call it from any worker.
func runClassical(kind BackendKind, p ClassicalParams, is *qubo.Ising, init []int8, reads int, r *rng.Source) (qubo.Sample, float64, error) {
	if reads < 1 {
		reads = 1
	}
	switch kind {
	case BackendSimulatedAnnealing:
		// The reads run eight at a time in lockstep SA groups, each lane
		// bit-identical to qubo.SimulatedAnnealingFrom(is, r.Split(k),
		// init, p.SA), and are folded in read order.
		var srcs [8]rng.Source
		var lanes [8]*rng.Source
		var starts [8][]int8
		var samples [8]qubo.Sample
		var best qubo.Sample
		sum := 0.0
		for k0 := 0; k0 < reads; k0 += len(lanes) {
			w := min(len(lanes), reads-k0)
			for j := 0; j < w; j++ {
				r.SplitInto(&srcs[j], uint64(k0+j))
				lanes[j], starts[j] = &srcs[j], init
			}
			annealer.SimulatedAnnealingGroup(is, lanes[:w], starts[:w], p.SA, samples[:w])
			for j, s := range samples[:w] {
				sum += s.Energy
				if k0+j == 0 || s.Energy < best.Energy {
					best = s
				}
			}
		}
		return best, sum / float64(reads), nil
	case BackendParallelTempering:
		var best qubo.Sample
		sum := 0.0
		for k := 0; k < reads; k++ {
			s := qubo.ParallelTempering(is, r.Split(uint64(k)), p.PT)
			sum += s.Energy
			if k == 0 || s.Energy < best.Energy {
				best = s
			}
		}
		return best, sum / float64(reads), nil
	case BackendQAOA:
		c, err := qaoa.Compile(is)
		if err != nil {
			return qubo.Sample{}, 0, err
		}
		res, err := c.OptimizeGrid(p.QAOAGrid, math.Pi)
		if err != nil {
			return qubo.Sample{}, 0, err
		}
		if p.QAOADepth > 1 {
			if res, err = c.ExtendDepth(res, p.QAOADepth-1, p.QAOAGrid, math.Pi); err != nil {
				return qubo.Sample{}, 0, err
			}
		}
		state, err := c.Run(res.Gammas, res.Betas)
		if err != nil {
			return qubo.Sample{}, 0, err
		}
		var best qubo.Sample
		sum := 0.0
		for k := 0; k < reads; k++ {
			z := qaoa.SampleState(state, r.Split(uint64(k)))
			e := c.EnergyOf(z)
			sum += e
			if k == 0 || e < best.Energy {
				best = qubo.Sample{Spins: c.SpinsOf(z), Energy: e}
			}
		}
		return best, sum / float64(reads), nil
	}
	return qubo.Sample{}, 0, fmt.Errorf("fleet: backend %s is not classical", kind)
}
