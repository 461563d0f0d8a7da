// Multi-run batches over prepared problems: the reverse-anneal primitive
// a flexible-parallelism ensemble detector (X-ResQ) and a serving tier's
// device batch both need. The runs of one call share one lease — one
// engine, schedule and device — and may carry different prepared
// problems, initial states and read counts; their reads are packed into
// full lockstep groups across runs by the one run body every entry point
// shares.
package annealer

import (
	"fmt"

	"repro/internal/rng"
)

// PreparedRun is one run of a multi-run batch: the prepared problem it
// anneals, the candidate state that seeds the reverse anneal, the run's
// read count (≤ 0: the lease default), and the run's private RNG stream.
type PreparedRun struct {
	Prep         *Prepared
	InitialState []int8
	NumReads     int
	Rng          *rng.Source
}

// RunPreparedMulti runs every run in one call of the run body: the reads
// of all runs share lockstep groups, so runs of a few reads each fill
// the kernel's lanes together. Each run's result is bit-identical to
// the equivalent standalone RunPrepared call with the same (prep, init,
// reads, rng) — a read's dynamics depend only on its own stream, never
// on its group — so callers may partition runs across calls freely.
//
// Per-run failures (e.g. injected device faults, or a read count past
// MaxReads) do not abort the batch: results[i] is nil and errs[i]
// carries the run's error, leaving the caller to apply its own
// degradation policy (an ensemble detector fuses the surviving arms).
// The error return covers argument validation only: every Prep must
// come from this lease's PrepareProblem and every run needs an Rng.
func (l *Lease) RunPreparedMulti(runs []PreparedRun) (results []*Result, errs []error, err error) {
	if len(runs) == 0 {
		return nil, nil, fmt.Errorf("annealer: multi-run batch needs at least one run")
	}
	rs := make([]*run, len(runs))
	for i, ru := range runs {
		if ru.Prep == nil || ru.Prep.l != l {
			return nil, nil, fmt.Errorf("annealer: multi-run %d: prepared problem does not belong to this lease", i)
		}
		if ru.Rng == nil {
			return nil, nil, fmt.Errorf("annealer: multi-run %d has no rng stream", i)
		}
		rs[i] = l.preparedRun(ru.Prep, ru.InitialState, ru.NumReads, ru.Rng)
	}
	runAll(rs, l.kernel, l.width)
	results = make([]*Result, len(runs))
	errs = make([]error, len(runs))
	for i, ru := range rs {
		results[i], errs[i] = ru.res, ru.err
	}
	return results, errs, nil
}
