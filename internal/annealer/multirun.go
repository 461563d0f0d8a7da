// Multi-run batches: the reverse-anneal primitive a flexible-parallelism
// ensemble detector (X-ResQ) and a serving tier's device batch both
// need. The runs of one call share one lease — one engine, schedule and
// device — and may carry different problems, initial states and read
// counts. The call compiles each distinct problem once and shares the
// Prepared among the runs that carry it; their reads are packed into
// full lockstep groups across runs by the one run body every entry
// point shares.
package annealer

import (
	"fmt"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// MultiRun is one run of a multi-run batch: the problem it anneals, the
// candidate state that seeds the reverse anneal, the run's read count
// (≤ 0: the lease default), and the run's private RNG stream.
type MultiRun struct {
	Problem      *qubo.Ising
	InitialState []int8
	NumReads     int
	Rng          *rng.Source
}

// RunMulti runs every run in one call of the run body: the reads of all
// runs share lockstep groups, so runs of a few reads each fill the
// kernel's lanes together. Runs that carry the same *qubo.Ising pointer
// share one PrepareProblem compile; each distinct pointer is compiled
// once, in first-appearance order, and the PrepareProblem contract
// holds: no problem may be mutated during the call. Each run's result
// is bit-identical to the equivalent standalone Lease.Run call with the
// same (problem, init, reads, rng) — a read's dynamics depend only on
// its own stream, never on its group or on who compiled its problem —
// so callers may partition runs across calls freely.
//
// Per-run failures (e.g. injected device faults, or a read count past
// MaxReads) do not abort the batch: results[i] is nil and errs[i]
// carries the run's error, leaving the caller to apply its own
// degradation policy (an ensemble detector fuses the surviving arms).
// The error return covers the batch's arguments: every run needs a
// Problem and an Rng, and every problem must compile for this lease
// (PrepareProblem's error, returned as is).
func (l *Lease) RunMulti(runs []MultiRun) (results []*Result, errs []error, err error) {
	rs, preps, err := l.multiRuns(runs)
	if err != nil {
		return nil, nil, err
	}
	runAll(rs, l.kernel, l.width)
	for _, prep := range preps {
		prep.release() // a shared compile's second release is a no-op
	}
	results = make([]*Result, len(runs))
	errs = make([]error, len(runs))
	for i, ru := range rs {
		results[i], errs[i] = ru.res, ru.err
	}
	return results, errs, nil
}

// multiRuns validates a batch and builds its runs for the run body,
// compiling each distinct problem pointer once: a run whose Problem an
// earlier run carries shares that run's compiled artifacts. It also
// returns each run's compile.
func (l *Lease) multiRuns(runs []MultiRun) ([]*run, []*Prepared, error) {
	if len(runs) == 0 {
		return nil, nil, fmt.Errorf("annealer: multi-run batch needs at least one run")
	}
	rs := make([]*run, len(runs))
	preps := make([]*Prepared, len(runs))
	for i, mr := range runs {
		if mr.Problem == nil {
			return nil, nil, fmt.Errorf("annealer: multi-run %d has no problem", i)
		}
		if mr.Rng == nil {
			return nil, nil, fmt.Errorf("annealer: multi-run %d has no rng stream", i)
		}
		for j := range i {
			if runs[j].Problem == mr.Problem {
				preps[i] = preps[j]
				break
			}
		}
		if preps[i] == nil {
			var err error
			if preps[i], err = l.PrepareProblem(mr.Problem); err != nil {
				return nil, nil, err
			}
		}
		rs[i] = l.preparedRun(preps[i], mr.InitialState, mr.NumReads, mr.Rng)
	}
	return rs, preps, nil
}
