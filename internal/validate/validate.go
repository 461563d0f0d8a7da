// Package validate is the statistical validation harness: it encodes the
// paper's headline observations as typed, machine-checkable Claims and
// decides each with seeded bootstrap confidence intervals instead of
// point estimates. Samples are drawn through the same fleet/annealer
// lease path production frames take, in sequential rounds (SPRT-style):
// a claim keeps drawing rounds until its CI clears the gate (pass),
// crosses it (fail), or its round cap or read budget runs out
// (inconclusive — which gates just as hard as a failure).
//
// The second half of the harness is golden-baseline regression: every
// paper figure is summarized into named metrics with confidence
// intervals, snapshotted under results/golden/, and compared by CI
// overlap on later runs — drift reports name the metric, both intervals,
// and a verdict, instead of diffing floats.
package validate

import (
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// Verdict is a claim's (or estimate's) decision.
type Verdict string

// The three decisions a sequential test can reach. Inconclusive means
// the budget ran out before the CI separated from the gate — for gating
// purposes that is a failure (the claim is not demonstrated).
const (
	Pass         Verdict = "pass"
	Fail         Verdict = "fail"
	Inconclusive Verdict = "inconclusive"
)

// The fixed scale of a validation run: every claim draws from
// experiments on validationInstances instances at validationReads reads
// (the rest as experiments.Config.WithDefaults), decides with
// bootstrapResamples-resample bootstrap CIs at bootstrapConfidence
// percent, and the fleet-speedup claim scales to fleetDevices devices.
const (
	validationInstances = 3
	validationReads     = 150
	bootstrapResamples  = 500
	bootstrapConfidence = 95
	fleetDevices        = 8
)

// Options tunes a validation run.
type Options struct {
	// Seed roots every claim's streams and the golden figures' inputs
	// (zero: 2020, the experiments default).
	Seed uint64
	// BatchReads is the per-arm batch size of the sequential sampler.
	BatchReads int
	// MaxReads is each claim's read budget, across all of its arms — the
	// CI-budget knob. A claim stops, undecided estimates Inconclusive,
	// when another round the size of its last one would pass MaxReads.
	// The first round and a claim's warm-up rounds are always drawn, so
	// a tiny budget can still be overspent by those.
	MaxReads int
	// Inject enables a deliberate regression for harness self-tests:
	// "ra-degraded" replaces every RA candidate state with random spins,
	// "reads-slashed" cuts MaxReads 10×, "fleet-serial" serves the
	// scaled fleet with one device, "cran-single-shard" serves the scaled
	// C-RAN tier with one shard, "hybrid-routing-off" pins every frame in
	// the hybrid pool to the classical class, "ensemble-collapsed"
	// shrinks the RA ensemble to K=1 over the trivial {0.45} grid.
	// Empty: no injection.
	Inject string
}

func (o Options) withDefaults() Options {
	if o.BatchReads <= 0 {
		o.BatchReads = 250
	}
	if o.MaxReads <= 0 {
		o.MaxReads = 30000
	}
	if o.Inject == "reads-slashed" {
		o.MaxReads = (o.MaxReads + 9) / 10
	}
	return o
}

// config is the experiments configuration a run's claims and golden
// figures draw from.
func (o Options) config() experiments.Config {
	return experiments.Config{Instances: validationInstances, Reads: validationReads, Seed: o.Seed}.WithDefaults()
}

// Estimate is one gated statistic of a claim: the bootstrap CI, the gate
// it must clear, and how the sequential test stopped.
type Estimate struct {
	Metric string     `json:"metric"`
	CI     metrics.CI `json:"ci"`
	Gate   float64    `json:"gate"`
	// Op is ">" (CI must lie above Gate) or "<" (below).
	Op      string  `json:"op"`
	Verdict Verdict `json:"verdict"`
	// Stop records why sampling ended for this estimate: "ci-cleared",
	// "ci-crossed", or "budget-exhausted".
	Stop string `json:"stop"`
	// Batches is the number of rounds the sequential test judged; the
	// warm-up rounds drawn before the first judgment are not counted.
	Batches int `json:"batches"`
}

// gradeAbove grades a "statistic exceeds gate" estimate; the verdict
// stays empty while the CI still straddles the gate.
func gradeAbove(metric string, ci metrics.CI, gate float64) Estimate {
	e := Estimate{Metric: metric, CI: ci, Gate: gate, Op: ">"}
	switch {
	case ci.Above(gate):
		e.Verdict, e.Stop = Pass, "ci-cleared"
	case ci.Below(gate):
		e.Verdict, e.Stop = Fail, "ci-crossed"
	}
	return e
}

// gradeBelow is gradeAbove mirrored: the CI must lie under the gate.
func gradeBelow(metric string, ci metrics.CI, gate float64) Estimate {
	e := Estimate{Metric: metric, CI: ci, Gate: gate, Op: "<"}
	switch {
	case ci.Below(gate):
		e.Verdict, e.Stop = Pass, "ci-cleared"
	case ci.Above(gate):
		e.Verdict, e.Stop = Fail, "ci-crossed"
	}
	return e
}

// ClaimResult is one claim's decision with its evidence.
type ClaimResult struct {
	Name      string     `json:"name"`
	Figure    string     `json:"figure"`
	Statement string     `json:"statement"`
	Verdict   Verdict    `json:"verdict"`
	Reads     int        `json:"reads"` // samples consumed by the claim
	Estimates []Estimate `json:"estimates"`
	Err       string     `json:"error,omitempty"`
}

// Report is a full validation run.
type Report struct {
	Schema     int           `json:"schema"`
	Seed       uint64        `json:"seed"`
	Confidence float64       `json:"confidence"`
	Inject     string        `json:"inject,omitempty"`
	Claims     []ClaimResult `json:"claims"`
}

// Failures counts claims that did not pass (failed, inconclusive, or
// errored) — the process exit criterion.
func (r *Report) Failures() int {
	n := 0
	for _, c := range r.Claims {
		if c.Verdict != Pass {
			n++
		}
	}
	return n
}

// WriteTable renders the run for humans.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Claim validation: seed %d, %g%% bootstrap CIs", r.Seed, r.Confidence)
	if r.Inject != "" {
		fmt.Fprintf(w, " [injected regression: %s]", r.Inject)
	}
	fmt.Fprintln(w)
	pass, fail, inc := 0, 0, 0
	for _, c := range r.Claims {
		fmt.Fprintf(w, "%-28s %-12s %s (%d reads)\n", c.Name, string(c.Verdict), c.Statement, c.Reads)
		if c.Err != "" {
			fmt.Fprintf(w, "    error: %s\n", c.Err)
		}
		for _, e := range c.Estimates {
			fmt.Fprintf(w, "    %-32s %8.4f [%8.4f, %8.4f] %s %g  %s/%s (%d batches)\n",
				e.Metric, e.CI.Value, e.CI.Lo, e.CI.Hi, e.Op, e.Gate,
				string(e.Verdict), e.Stop, e.Batches)
		}
		switch c.Verdict {
		case Pass:
			pass++
		case Fail:
			fail++
		default:
			inc++
		}
	}
	fmt.Fprintf(w, "claims: %d pass, %d fail, %d inconclusive\n", pass, fail, inc)
}

// Env is the evaluation environment claims sample in: the scaled config,
// the budget, and the root randomness every claim splits its own
// deterministic streams from.
type Env struct {
	opts Options
	cfg  experiments.Config
	root *rng.Source
}

// NewEnv builds an environment from options (defaults applied).
func NewEnv(opts Options) *Env {
	o := opts.withDefaults()
	cfg := o.config()
	return &Env{opts: o, cfg: cfg, root: rng.New(cfg.Seed).SplitString("validate")}
}

// claimRng derives a claim's private randomness stream.
func (e *Env) claimRng(name string) *rng.Source { return e.root.SplitString(name) }

// Run evaluates every registered claim and assembles the report. An
// evaluation error fails its claim but does not abort the run.
func Run(opts Options) *Report {
	env := NewEnv(opts)
	rep := &Report{
		Schema:     GoldenSchema,
		Seed:       env.cfg.Seed,
		Confidence: bootstrapConfidence,
		Inject:     env.opts.Inject,
	}
	for _, cl := range Claims() {
		res := ClaimResult{Name: cl.Name, Figure: cl.Figure, Statement: cl.Statement}
		ests, reads, err := cl.Eval(env)
		res.Estimates, res.Reads = ests, reads
		if err != nil {
			res.Verdict, res.Err = Fail, err.Error()
		} else {
			res.Verdict = combine(ests)
		}
		rep.Claims = append(rep.Claims, res)
	}
	return rep
}

// combine folds estimate verdicts into the claim verdict: any failure
// fails the claim; any undecided estimate leaves it inconclusive.
func combine(ests []Estimate) Verdict {
	v := Pass
	for _, e := range ests {
		switch e.Verdict {
		case Fail:
			return Fail
		case Pass:
		default:
			v = Inconclusive
		}
	}
	if len(ests) == 0 {
		return Inconclusive
	}
	return v
}
