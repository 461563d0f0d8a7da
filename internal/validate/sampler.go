package validate

import (
	"fmt"

	"repro/internal/annealer"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// groundTol is the energy slack for counting a read as a ground-state
// hit, matching the figure harnesses.
const groundTol = 1e-6

// arm is one solver configuration of a sequential test: a prepared
// annealer.Lease (so repeated small batches pay Engine.Prepare once, the
// same economics the fleet dispatcher has) plus the accumulated
// Bernoulli success counts the bootstrap resamples.
type arm struct {
	name  string
	dur   float64 // one read's schedule μs, for TTS
	init  []int8
	lease *annealer.Lease
	r     *rng.Source

	successes int
	trials    int
}

// newArm prepares a sampling arm from the environment's anneal
// configuration.
func (e *Env) newArm(name string, sc *annealer.Schedule, init []int8, r *rng.Source) (*arm, error) {
	cfg := e.opts.Config
	l, err := annealer.NewLease(annealer.Params{
		Schedule:             sc,
		Engine:               cfg.Engine,
		Profile:              cfg.Profile,
		SweepsPerMicrosecond: cfg.SweepsPerMicrosecond,
		ICE:                  cfg.ICE,
		Parallelism:          max(cfg.Parallelism, 1),
	})
	if err != nil {
		return nil, fmt.Errorf("validate: arm %s: %w", name, err)
	}
	return &arm{name: name, dur: sc.Duration(), init: init, lease: l, r: r}, nil
}

// draw pulls one batch of reads and folds them into the arm's counts.
func (a *arm) draw(is *qubo.Ising, groundEnergy float64, reads int) error {
	out, err := a.lease.Run(is, a.init, reads, a.r)
	if err != nil {
		return fmt.Errorf("validate: arm %s: %w", a.name, err)
	}
	for _, smp := range out.Samples {
		if smp.Energy <= groundEnergy+groundTol {
			a.successes++
		}
	}
	a.trials += len(out.Samples)
	return nil
}

// p returns the arm's running success-probability estimate.
func (a *arm) p() float64 {
	if a.trials == 0 {
		return 0
	}
	return float64(a.successes) / float64(a.trials)
}

// armRound is the round of an arm-based claim: one BatchReads batch
// per arm.
func (e *Env) armRound(arms []*arm, is *qubo.Ising, groundEnergy float64) func(int) (int, error) {
	return func(int) (int, error) {
		for _, a := range arms {
			if err := a.draw(is, groundEnergy, e.opts.BatchReads); err != nil {
				return 0, err
			}
		}
		return e.opts.BatchReads * len(arms), nil
	}
}

// Replicate claims draw one whole workload replicate per round: the
// bootstrap needs three replicates before its CI means anything, and six
// is as many as a CI leg can afford.
const replicateWarmup, replicateCap = 3, 6

// seqTest is one claim's sequential test. The claim supplies what one
// round draws and how the draws are judged; sequential owns the stop
// rule.
type seqTest struct {
	// round draws round k (from 0) and returns the reads it spent: one
	// batch per arm, one corpus round, one replicate, or one trial batch.
	round func(k int) (int, error)
	// judge grades everything drawn so far; an empty Verdict is undecided.
	judge func() []Estimate
	// warmup is the round after which the judge first runs (0 or 1: after
	// every round). Earlier rounds are neither judged nor budget-checked.
	warmup int
	// cap is the most rounds the test may draw (0: MaxReads alone).
	cap int
	// spent is reads drawn before the first round (an oracle probe); they
	// count against MaxReads and in the returned total.
	spent int
}

// sequential is the SPRT-style sampling loop behind every claim: draw a
// round, and once past the warm-up judge it, stamping each estimate with
// the number of judged rounds. It stops as soon as every estimate is
// decided (each CI clear of or across its gate). Otherwise, once the
// round cap is reached or another round the size of the last one would
// take the claim past MaxReads, the undecided estimates are marked
// Inconclusive/budget-exhausted. The first round and the warm-up rounds
// are always drawn, so a claim can spend more than MaxReads. Returns the
// estimates and the claim's total reads.
func (e *Env) sequential(t seqTest) ([]Estimate, int, error) {
	spent := t.spent
	first := max(t.warmup, 1)
	for k := 1; ; k++ {
		n, err := t.round(k - 1)
		if err != nil {
			return nil, spent, err
		}
		spent += n
		if k < first {
			continue
		}
		ests := t.judge()
		done := true
		for i := range ests {
			ests[i].Batches = k - first + 1
			done = done && ests[i].Verdict != ""
		}
		if done {
			return ests, spent, nil
		}
		if (t.cap > 0 && k >= t.cap) || spent+n > e.opts.MaxReads {
			for i := range ests {
				if ests[i].Verdict == "" {
					ests[i].Verdict, ests[i].Stop = Inconclusive, "budget-exhausted"
				}
			}
			return ests, spent, nil
		}
	}
}
