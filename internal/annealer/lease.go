// Device handle / lease API: a Lease pins one device session's validated
// parameters and the engine's compiled sweep program so a serving layer
// can run MANY problems through the same device without re-validating or
// re-running Engine.Prepare per call. Run and QPU.Run pay the Prepare
// compile (schedule tables, per-sweep transcendentals) once per batch;
// a lease pays it once per (device, schedule) for an arbitrarily long
// stream of batches — the amortization a multi-QPU fleet dispatcher
// needs when frames arrive faster than schedules change.
package annealer

import (
	"fmt"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// Lease is a prepared session on one simulated device: a validated
// Params template plus the engine's batch-invariant compiled kernel.
// A lease is safe for concurrent Run calls — the compiled program is
// read-only and per-read scratch is pooled — so an execution
// layer may run batches of the same device on multiple workers.
type Lease struct {
	p      Params
	kernel BatchReadFunc
	width  int // reads per lockstep group of kernel (groupWidth)
	qpu    *QPU
}

// NewLease validates p once, compiles the engine's sweep program, and
// returns the reusable session. p.InitialState and p.NumReads act as
// per-call defaults that Run's arguments override; every other field
// (schedule, engine, profile, noise, fault model, telemetry hooks) is
// fixed for the lease's lifetime.
func NewLease(p Params) (*Lease, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	kernel, err := p.Engine.Prepare(p.Schedule, *p.Profile, p.SweepsPerMicrosecond)
	if err != nil {
		return nil, err
	}
	return &Lease{p: p, kernel: kernel, width: groupWidth(p.Engine)}, nil
}

// Lease returns a prepared session on the QPU. Its runs anneal the
// logical problem — bit-identical to NewLease(p) with the same RNG — but
// reject problems beyond MaxProblemSize and lay trace spans out with the
// QPU's programming and readout overheads. With
// q.Chains set, runs take the full hardware path instead: minor-embedding
// onto the QPU's Chimera graph, physical anneal, majority-vote
// unembedding. On a nil QPU it is NewLease(p): a plain logical lease
// with no capacity check and no device overheads.
func (q *QPU) Lease(p Params) (*Lease, error) {
	l, err := NewLease(p)
	if err != nil {
		return nil, err
	}
	l.qpu = q
	return l, nil
}

// Embedded reports whether runs take the Chimera-embedded chain path (a
// QPU lease with QPU.Chains set). A default QPU lease is not embedded: it
// models the QPU's capacity and clock but anneals the logical problem.
func (l *Lease) Embedded() bool { return l.qpu != nil && l.qpu.Chains }

// Run draws numReads reads (≤ 0: the lease default) for one problem,
// reverse-annealing from init when the leased schedule starts classical.
// Results are bit-identical to Run/QPU.Run with the same parameters and
// RNG — the lease only amortizes validation and Prepare, it never
// changes the dynamics.
func (l *Lease) Run(is *qubo.Ising, init []int8, numReads int, r *rng.Source) (*Result, error) {
	prep, err := l.PrepareProblem(is)
	if err != nil {
		return nil, err
	}
	defer prep.release()
	return l.RunPrepared(prep, init, numReads, r)
}

// callParams applies one call's arguments to the lease template: init
// becomes the initial state and a positive numReads overrides the
// default read count, which must stay within MaxReads.
func (l *Lease) callParams(init []int8, numReads int) (Params, error) {
	p := l.p
	p.InitialState = init
	if numReads > 0 {
		p.NumReads = numReads
	}
	if p.NumReads > MaxReads {
		return p, fmt.Errorf("annealer: %d reads exceed the per-read stream limit %d", p.NumReads, MaxReads)
	}
	return p, nil
}
