// Prepared problems. A Lease already amortizes Params validation and
// the engine's sweep-program compile across calls; what it still pays
// per Run is the per-PROBLEM compile — CSR layout and normalization,
// plus clique embedding, chain strength and physical coefficients on
// the chain path. PrepareProblem is that compile, the only one: Run
// pays it per call, RunPrepared runs any number of reads against one
// Prepared, and RunMulti compiles each distinct problem of its batch
// once and shares the Prepared among the runs that carry it — the arms
// of one ensemble frame (internal/core's runArms) or the batch-mates of
// one fleet batch (internal/fleet's runBatch).
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
// the problem the engine actually sweeps (physical for chain leases),
// its dense row table when the lease's SVMC kernel applies along one
// (problems of at most svmcRowSpins spins), plus, on the chain path,
// the minor embedding. It is immutable after
// PrepareProblem and safe for concurrent RunPrepared calls.
type Prepared struct {
	l    *Lease
	is   *qubo.Ising
	pr   *qubo.CSR
	rows *svmcRows // pr's dense row table when the lease's kernel uses one
	emb  *chimera.Embedding
}

// Problem returns the problem the Prepared was compiled from — the
// caller's own *qubo.Ising, not a copy.
func (p *Prepared) Problem() *qubo.Ising { return p.is }

// PrepareProblem compiles is for this lease: CSR + normalization, plus
// embedding and physical coefficients when the lease runs chains, and
// the dense row table of a problem the SIMD SVMC kernel sweeps. A QPU
// lease rejects a problem beyond the QPU's clique capacity here. The
// Prepared keeps is itself, not a copy: the caller must not mutate is
// while the Prepared is in use, or its runs would mix the new
// coefficients (sample energies) with the old compile (dynamics).
func (l *Lease) PrepareProblem(is *qubo.Ising) (*Prepared, error) {
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
	} else {
		if l.qpu != nil {
			if err := l.qpu.checkCapacity(is); err != nil {
				return nil, err
			}
		}
		prep.pr = qubo.NewCSR(is)
		prep.pr.Normalize()
	}
	if svmcUsesRows(l.p.Engine) && prep.pr.N <= svmcRowSpins {
		prep.rows = newSVMCRows(prep.pr)
	}
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
	return &run{is: prep.is, emb: prep.emb, pr: prep.pr, rows: prep.rows, p: p, r: r, err: err}
}

// release hands the row table of a Prepared compiled for one call back
// to the pool once the call's runs are done; the Prepared must not run
// again. Run and RunMulti release the problems they compile themselves.
func (p *Prepared) release() {
	if p.rows != nil {
		svmcRowsPool.Put(p.rows)
		p.rows = nil
	}
}
