package annealer

import (
	"fmt"
	"math"
	"sync"
)

// PIMC is the path-integral Monte Carlo engine — simulated quantum
// annealing, the standard classical surrogate for transverse-field
// quantum annealing dynamics (Boixo et al. 2014; Rønnow et al. 2014).
//
// The transverse-field Ising model at inverse temperature β is mapped by
// the Suzuki–Trotter decomposition onto P coupled classical replicas
// ("imaginary-time slices") with action
//
//	S = (β·B(s)/2P)·Σ_k E_problem(slice k)
//	  − K(s)·Σ_k Σ_i s_{i,k}·s_{i,k+1} ,
//	K(s) = −½·ln tanh(β·A(s)/2P) ≥ 0  (periodic in k),
//
// evolved by Metropolis single-spin flips as s(t) follows the schedule.
// Strong transverse field (small s) means weak replica coupling —
// replicas decorrelate, measurement is random; near s = 1 the replicas
// lock ferromagnetically and the system behaves as a classical register.
// Measurement returns one uniformly chosen replica, mirroring the
// projective readout of the device.
type PIMC struct {
	// Slices is the Trotter number P (default 16, at most 64: the
	// production kernel packs one replica slice per bit of a word).
	Slices int
}

// maxTemporalCoupling clamps K(s) as A(s) → 0 so late-schedule dynamics
// freeze smoothly instead of dividing by zero.
const maxTemporalCoupling = 5.0

// Name implements Engine.
func (PIMC) Name() string { return "pimc" }

func (e PIMC) slices() int {
	if e.Slices <= 0 {
		return 16
	}
	return e.Slices
}

// temporalCoupling returns K(s), clamped to [0, maxTemporalCoupling].
func (e PIMC) temporalCoupling(beta, a float64, p int) float64 {
	arg := beta * a / (2 * float64(p))
	if arg <= 0 {
		return maxTemporalCoupling
	}
	t := math.Tanh(arg)
	if t <= 0 {
		return maxTemporalCoupling
	}
	k := -0.5 * math.Log(t)
	if k < 0 {
		k = 0 // tanh > 1 cannot happen; guard for rounding
	}
	if k > maxTemporalCoupling {
		k = maxTemporalCoupling
	}
	return k
}

// pimcProgram is PIMC's compiled sweep program: per sweep, the spatial
// action factor β·B(s)/2P and the clamped temporal coupling K(s).
type pimcProgram struct {
	tab               *sweepTable
	spatial, temporal []float64
	p                 int
	startsClassical   bool
}

// compile builds the sweep program once for the batch — a tanh+log per
// sweep instead of per read. The bit-packed kernel holds one replica
// slice per bit of a uint64, so a Trotter number above 64 is rejected.
func (e PIMC) compile(sc *Schedule, prof Profile, sweepsPerMicrosecond float64) (*pimcProgram, error) {
	p := e.slices()
	if p > 64 {
		return nil, fmt.Errorf("annealer: PIMC supports at most 64 Trotter slices, got %d", p)
	}
	tab, err := newSweepTable(sc, prof, sweepsPerMicrosecond)
	if err != nil {
		return nil, err
	}
	beta := 1 / prof.TemperatureGHz
	spatial := make([]float64, tab.sweeps())
	temporal := make([]float64, tab.sweeps())
	for i := range spatial {
		spatial[i] = beta * tab.b[i] / (2 * float64(p))
		temporal[i] = e.temporalCoupling(beta, tab.a[i], p)
	}
	return &pimcProgram{tab: tab, spatial: spatial, temporal: temporal, p: p,
		startsClassical: sc.StartsClassical()}, nil
}

// Prepare implements Engine: the sweep program is compiled once and the
// returned kernel runs each read of a group through the bit-packed
// sweep loop, with replica/field scratch pooled across reads.
func (e PIMC) Prepare(sc *Schedule, prof Profile, sweepsPerMicrosecond float64) (BatchReadFunc, error) {
	prog, err := e.compile(sc, prof, sweepsPerMicrosecond)
	if err != nil {
		return nil, err
	}
	pool := &sync.Pool{New: func() any { return new(pimcBatchScratch) }}
	return func(reads []BatchRead) {
		for _, br := range reads {
			st := pool.Get().(*pimcBatchScratch)
			st.ensure(prog.p, br.Prog.N)
			pimcPackedRead(br.Prog, prog, br.Init, br.Out, st, br.Rng, br.Probe)
			pool.Put(st)
		}
	}, nil
}
