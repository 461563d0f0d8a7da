package annealer

import "sync"

// SVMC is the spin-vector Monte Carlo engine (Shin, Smith, Smolin &
// Vazirani's classical model of D-Wave dynamics): each qubit i is a
// classical rotor with angle θ_i ∈ [0, π], with energy
//
//	E(θ; s) = −A(s)/2·Σ sin θ_i
//	        + B(s)/2·(Σ h_i·cos θ_i + Σ J_ij·cos θ_i·cos θ_j),
//
// evolved by Metropolis updates at the device temperature while s(t)
// follows the anneal schedule. Measurement projects each rotor to
// sign(cos θ).
//
// The model reproduces the schedule physics the paper's comparison rests
// on: at small s the transverse term dominates and rotors sit near π/2
// (random measurement), near s = 1 the problem term with β·B/2 ≫ 1
// freezes the rotors (classical memory), and in between quantum-style
// fluctuations let a reverse anneal escape shallow local minima around
// its programmed initial state.
// The zero value proposes fresh uniform angles per update (the original
// SVMC of Shin et al.). TFMoves switches to transverse-field-scaled
// proposals (the "SVMC-TF" variant of Albash et al.): θ' = θ +
// u·π·A(s)/(A(s)+B(s)) with occasional global jumps at the same rate, so
// move sizes shrink as the problem Hamiltonian overtakes the driver and
// the dynamics freeze out hard. TF moves retain reverse-anneal initial
// states essentially perfectly but also block the local cluster repairs
// that make a hybrid's reverse anneal useful, so the uniform-move model
// plus the device's final quench (annealer.Params) is the calibrated
// default; TF remains available for ablation.
type SVMC struct {
	TFMoves bool
}

// minMoveScale floors the TF proposal width (fraction of π) so the
// frozen regime retains a sliver of ergodicity.
const minMoveScale = 0.02

// Name implements Engine.
func (e SVMC) Name() string {
	if e.TFMoves {
		return "svmc-tf"
	}
	return "svmc"
}

// moveScale is the TF proposal width as a fraction of π: A/(A+B),
// floored at minMoveScale. Early in the schedule (A ≫ B) rotors make
// full-range moves; as the problem Hamiltonian overtakes the driver the
// moves shrink and the dynamics freeze out.
func moveScale(a, b float64) float64 {
	if a+b <= 0 {
		return 1
	}
	s := a / (a + b)
	if s < minMoveScale {
		s = minMoveScale
	}
	return s
}

// svmcProgram is SVMC's compiled sweep program: the batch-shared sweep
// table plus, for TF moves, the per-sweep proposal widths.
type svmcProgram struct {
	tab             *sweepTable
	scale           []float64 // TF proposal width per sweep; nil for uniform moves
	beta            float64
	startsClassical bool
}

// compile builds the sweep program — s(t), A(s), B(s) and, for TF moves,
// the per-sweep proposal scale — once for the whole batch.
func (e SVMC) compile(sc *Schedule, prof Profile, sweepsPerMicrosecond float64) (*svmcProgram, error) {
	tab, err := newSweepTable(sc, prof, sweepsPerMicrosecond)
	if err != nil {
		return nil, err
	}
	// TF proposal widths are pure functions of the sweep's (A, B): one
	// table shared by every read instead of a divide per sweep per read.
	var scale []float64
	if e.TFMoves {
		scale = make([]float64, tab.sweeps())
		for i := range scale {
			scale[i] = moveScale(tab.a[i], tab.b[i])
		}
	}
	return &svmcProgram{tab: tab, scale: scale, beta: 1 / prof.TemperatureGHz,
		startsClassical: sc.StartsClassical()}, nil
}

// Prepare implements Engine: it compiles the sweep program once and
// returns the lockstep group kernel over it, with group scratch pooled
// across calls.
func (e SVMC) Prepare(sc *Schedule, prof Profile, sweepsPerMicrosecond float64) (BatchReadFunc, error) {
	prog, err := e.compile(sc, prof, sweepsPerMicrosecond)
	if err != nil {
		return nil, err
	}
	pool := &sync.Pool{New: func() any { return new(svmcBatchScratch) }}
	return func(reads []BatchRead) {
		if len(reads) == 0 {
			return
		}
		st := pool.Get().(*svmcBatchScratch)
		svmcBatchRead(prog, reads, st)
		pool.Put(st)
	}, nil
}
