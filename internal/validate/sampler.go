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

// sequential is the SPRT-style sampling loop: every round draws one
// batch per arm, re-judges the claim's estimates, and stops as soon as
// every estimate is decided (each CI clear of or across its gate) or
// continuing would exceed the claim's read budget (minus any reads the
// claim already spent, e.g. on an oracle probe). Undecided estimates are
// marked Inconclusive/budget-exhausted. Returns the estimates and the
// reads drawn by this loop.
func (e *Env) sequential(arms []*arm, is *qubo.Ising, groundEnergy float64,
	alreadySpent int, judge func() []Estimate) ([]Estimate, int, error) {
	batch := e.opts.BatchReads
	spent := 0
	batches := 0
	for {
		for _, a := range arms {
			if err := a.draw(is, groundEnergy, batch); err != nil {
				return nil, spent, err
			}
			spent += batch
		}
		batches++
		ests := judge()
		done := true
		for i := range ests {
			ests[i].Batches = batches
			if ests[i].Verdict == "" {
				done = false
			}
		}
		if done {
			return ests, spent, nil
		}
		if alreadySpent+spent+batch*len(arms) > e.opts.MaxReads {
			for i := range ests {
				if ests[i].Verdict == "" {
					ests[i].Verdict = Inconclusive
					ests[i].Stop = "budget-exhausted"
				}
			}
			return ests, spent, nil
		}
	}
}
