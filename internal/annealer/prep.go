// Prepared problems. A Lease already amortizes Params validation and
// the engine's sweep-program compile across calls; what it still pays
// per Run is the per-PROBLEM compile — CSR layout and normalization,
// plus clique embedding, chain strength and physical coefficients on
// the chain path. PrepareProblem hoists that compile into a Prepared,
// and RunPrepared / RunPreparedMulti run any number of reads against
// one. A serving tier shares a Prepared among the runs that carry the
// same problem — the arms of one ensemble frame (internal/core's
// runArms, internal/fleet's runBatch) — and compiles every other
// problem once, where it runs.
//
// Correctness is structural: a Prepared holds exactly the artifacts
// Lease.Run would recompute — byte for byte, since the compile is
// deterministic — and they are read-only during runs, so RunPrepared is
// bit-identical to Run and sharing one can never change an answer.
package annealer

import (
	"fmt"

	"repro/internal/chimera"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// Prepared is one problem compiled for one lease: the normalized CSR of
// the problem the engine actually sweeps (physical for chain leases)
// plus, on the chain path, the minor embedding. It is immutable after
// PrepareProblem and safe for concurrent RunPrepared calls.
type Prepared struct {
	l   *Lease
	is  *qubo.Ising // private snapshot of the problem
	pr  *qubo.CSR
	emb *chimera.Embedding
}

// Problem returns the prepared problem's private snapshot. Mutating it
// would desynchronize it from the compiled artifacts — treat as
// read-only.
func (p *Prepared) Problem() *qubo.Ising { return p.is }

// PrepareProblem compiles is for this lease: CSR + normalization, plus
// embedding and physical coefficients when the lease runs chains. A QPU
// lease rejects a problem beyond the QPU's clique capacity here. The
// snapshot it keeps is a deep copy, so later mutation of is cannot
// desynchronize the Prepared from its compiled artifacts.
func (l *Lease) PrepareProblem(is *qubo.Ising) (*Prepared, error) {
	return l.compile(is.Clone())
}

// compile is PrepareProblem without the snapshot copy, for a one-call
// Prepared whose problem cannot change while it runs (Lease.Run).
func (l *Lease) compile(is *qubo.Ising) (*Prepared, error) {
	if is.N == 0 {
		return nil, fmt.Errorf("annealer: empty problem")
	}
	prep := &Prepared{l: l, is: is}
	if l.Embedded() {
		emb, pr, err := l.qpu.prepareEmbedded(is)
		if err != nil {
			return nil, err
		}
		prep.emb, prep.pr = emb, pr
		return prep, nil
	}
	if l.qpu != nil {
		if err := l.qpu.checkCapacity(is); err != nil {
			return nil, err
		}
	}
	prep.pr = qubo.NewCSR(is)
	prep.pr.Normalize()
	return prep, nil
}

// RunPrepared is Lease.Run against a prepared problem: bit-identical
// results, minus the per-call problem compile. prep must have come from
// this lease's PrepareProblem.
func (l *Lease) RunPrepared(prep *Prepared, init []int8, numReads int, r *rng.Source) (*Result, error) {
	if prep == nil || prep.l != l {
		return nil, fmt.Errorf("annealer: prepared problem does not belong to this lease")
	}
	ru := l.preparedRun(prep, init, numReads, r)
	runAll([]*run{ru}, l.kernel, l.width)
	return ru.res, ru.err
}

// preparedRun builds the run of one call against prep; an argument error
// is carried in the run's err.
func (l *Lease) preparedRun(prep *Prepared, init []int8, numReads int, r *rng.Source) *run {
	p, err := l.callParams(init, numReads)
	if l.qpu != nil {
		p = l.qpu.withTiming(p)
	}
	return &run{is: prep.is, emb: prep.emb, pr: prep.pr, p: p, r: r, err: err}
}
