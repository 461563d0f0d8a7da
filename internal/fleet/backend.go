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
	// BackendParallelTempering runs replica-exchange Monte Carlo, the
	// strongest classical surrogate: eight reads at a time through
	// annealer.ParallelTemperingGroup, each bit-identical to
	// qubo.ParallelTempering.
	BackendParallelTempering
	// BackendSimulatedAnnealing runs simulated annealing seeded from the
	// frame's classical candidate — a cheap local refiner: eight reads at
	// a time through annealer.SimulatedAnnealingGroup, each bit-identical
	// to qubo.SimulatedAnnealingFrom.
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

// serving is the one configuration every classical backend runs at. Its
// efforts are serving-scale, smaller than the qubo package's
// offline-analysis defaults: a serving read is a bounded-effort restart,
// not an exhaustive search. The timing model and the solver both read
// it, so a modelled service time always prices the work the solver does.
var serving = struct {
	// opsPerMicrosecond is the modelled spin-update throughput of a
	// worker. Every timing figure divides by it.
	opsPerMicrosecond float64
	// setupMicros is the per-batch dispatch overhead in μs: the classical
	// analogue of QPU programming time, three orders of magnitude cheaper.
	setupMicros float64
	pt          qubo.PTOptions
	sa          qubo.SAOptions
	// qaoaDepth and qaoaGrid set the circuit depth and the per-layer
	// angle grid of the QAOA optimization.
	qaoaDepth, qaoaGrid int
}{
	opsPerMicrosecond: 2000,
	setupMicros:       50,
	pt:                qubo.PTOptions{Replicas: 4, Sweeps: 200, BetaMin: 0.1, BetaMax: 10, SwapInterval: 5},
	sa:                qubo.SAOptions{Sweeps: 300, BetaStart: 0.1, BetaEnd: 10},
	qaoaDepth:         2,
	qaoaGrid:          6,
}

// sweepOps is the modelled spin-update count of one full Metropolis sweep:
// each of the N proposals touches its spin plus the neighbor fields on
// both coupling directions.
func sweepOps(is *qubo.Ising) float64 {
	return float64(is.N + 2*is.NumEdges())
}

// classicalServiceMicros is the deterministic timing model: the μs a
// classical backend is busy serving one frame's reads, excluding the
// per-batch setup overhead (charged once per programming cycle like QPU
// programming time).
func classicalServiceMicros(kind BackendKind, is *qubo.Ising, reads int) float64 {
	switch kind {
	case BackendSimulatedAnnealing:
		return float64(reads) * float64(serving.sa.Sweeps) * sweepOps(is) / serving.opsPerMicrosecond
	case BackendParallelTempering:
		return float64(reads) * float64(serving.pt.Replicas) * float64(serving.pt.Sweeps) * sweepOps(is) / serving.opsPerMicrosecond
	case BackendQAOA:
		// The grid optimization dominates: depth × grid² statevector
		// evolutions over 2^N amplitudes, run once per frame; each read is
		// then an O(N) measurement draw.
		states := math.Pow(2, float64(is.N))
		opt := float64(serving.qaoaDepth) * float64(serving.qaoaGrid*serving.qaoaGrid) * states
		return (opt + float64(reads)*float64(is.N)) / serving.opsPerMicrosecond
	}
	return 0
}

// runClassical executes one frame's planned reads on a classical backend
// with the plan-fixed RNG stream and returns the best sample across reads
// plus the mean best-of-read energy (the quality telemetry analogue of the
// anneal's mean sample energy). It is a pure function of its arguments, so
// the execute phase can call it from any worker.
func runClassical(kind BackendKind, is *qubo.Ising, init []int8, reads int, r *rng.Source) (qubo.Sample, float64, error) {
	if reads < 1 {
		reads = 1
	}
	switch kind {
	case BackendSimulatedAnnealing, BackendParallelTempering:
		// The reads run eight at a time in lockstep groups, lane j of a
		// group bit-identical to the one-read solver on r.Split(k) —
		// qubo.SimulatedAnnealingFrom(·, init, serving.sa) or
		// qubo.ParallelTempering(·, serving.pt) — and are folded in read
		// order.
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
			if kind == BackendSimulatedAnnealing {
				annealer.SimulatedAnnealingGroup(is, lanes[:w], starts[:w], serving.sa, samples[:w])
			} else {
				annealer.ParallelTemperingGroup(is, lanes[:w], serving.pt, samples[:w])
			}
			for j, s := range samples[:w] {
				sum += s.Energy
				if k0+j == 0 || s.Energy < best.Energy {
					best = s
				}
			}
		}
		return best, sum / float64(reads), nil
	case BackendQAOA:
		c, err := qaoa.Compile(is)
		if err != nil {
			return qubo.Sample{}, 0, err
		}
		res, err := c.OptimizeGrid(serving.qaoaGrid, math.Pi)
		if err != nil {
			return qubo.Sample{}, 0, err
		}
		if serving.qaoaDepth > 1 {
			if res, err = c.ExtendDepth(res, serving.qaoaDepth-1, serving.qaoaGrid, math.Pi); err != nil {
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
