package experiments

import (
	"fmt"
	"io"

	"repro/internal/annealer"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/modulation"
	"repro/internal/qubo"
)

// Fig4Result reports the soft-information constraint scheme of §3.1 /
// Figure 4: how adding pairwise constraint terms toward the (correct)
// transmitted bits changes FA sampling quality, and how a wrong prior
// harms it — the paper's conclusion being that tuning the constraint
// factors on noisy analog hardware is impractical.
type Fig4Result struct {
	Users  int               `json:"users"`
	Scheme modulation.Scheme `json:"scheme"`
	Rows   []Fig4Row         `json:"rows"`
}

// Fig4Row is one constraint-weight setting.
type Fig4Row struct {
	Weight     float64 `json:"weight"`
	PriorWrong bool    `json:"prior_wrong"`
	PStar      float64 `json:"p_star"`
	MeanDeltaE float64 `json:"mean_delta_e"`
	// OptimumMoved reports whether the constrained problem's optimum no
	// longer matches the original optimum's bits.
	OptimumMoved bool `json:"optimum_moved"`
	// Hits of Samples is the success count behind PStar — the row's
	// sample vector for confidence intervals.
	Hits    int `json:"hits"`
	Samples int `json:"samples"`
}

// Figure4 runs the constraint study on one 16-QAM instance: the first
// two bit pairs get constraints à la the Figure 4 example, with weights
// swept, under both a correct and a deliberately wrong prior. Samples
// are drawn by FA on the constrained landscape and scored against the
// ORIGINAL problem's energies.
func Figure4(cfg Config) (*Fig4Result, error) {
	cfg = cfg.withDefaults()
	const users = 5 // 20 variables: exhaustively checkable optimum shift
	in, err := instance.Synthesize(instance.Spec{Users: users, Scheme: modulation.QAM16, Seed: cfg.Seed ^ 0x44})
	if err != nil {
		return nil, err
	}
	root := cfg.root().SplitString("fig4")
	res := &Fig4Result{Users: users, Scheme: modulation.QAM16}
	base := in.Reduction.Ising.ToQUBO()
	groundBits := qubo.SpinsToBits(in.GroundSpins)
	sc, err := annealer.Forward(core.AnnealMicros, core.FASp, core.PauseMicros)
	if err != nil {
		return nil, err
	}

	for _, wrong := range []bool{false, true} {
		for _, weight := range []float64{0, 0.5, 2, 8} {
			target := func(i int) int8 {
				if wrong {
					return 1 - groundBits[i]
				}
				return groundBits[i]
			}
			var cons []qubo.SoftConstraint
			if weight > 0 {
				cons = []qubo.SoftConstraint{
					{I: 0, J: 1, TargetI: target(0), TargetJ: target(1), Weight: weight},
					{I: 2, J: 3, TargetI: target(2), TargetJ: target(3), Weight: weight},
				}
			}
			constrained := qubo.ApplyConstraints(base, cons)

			opt, err := qubo.Exhaustive(constrained)
			if err != nil {
				return nil, err
			}
			moved := false
			for i := range opt.Bits {
				if opt.Bits[i] != groundBits[i] {
					moved = true
					break
				}
			}

			out, err := annealer.Run(constrained.ToIsing(),
				cfg.annealParams(sc, nil, cfg.Reads),
				root.SplitString(fmt.Sprintf("w%.1f-%v", weight, wrong)))
			if err != nil {
				return nil, err
			}
			var dSum float64
			hits := 0
			for _, smp := range out.Samples {
				e := in.Reduction.Ising.Energy(smp.Spins)
				dSum += metrics.DeltaEForIsing(in.Reduction.Ising, e, in.GroundEnergy)
				if e <= in.GroundEnergy+1e-6 {
					hits++
				}
			}
			res.Rows = append(res.Rows, Fig4Row{
				Weight:       weight,
				PriorWrong:   wrong,
				PStar:        float64(hits) / float64(len(out.Samples)),
				MeanDeltaE:   dSum / float64(len(out.Samples)),
				OptimumMoved: moved,
				Hits:         hits,
				Samples:      len(out.Samples),
			})
		}
	}
	return res, nil
}

// WriteTable renders the study.
func (r *Fig4Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Figure 4 scheme: soft-information constraints, %d-user %s\n", r.Users, r.Scheme)
	writeRow(w, "prior", "weight", "p_star", "mean_dE%", "opt_moved")
	for _, row := range r.Rows {
		prior := "correct"
		if row.PriorWrong {
			prior = "wrong"
		}
		moved := 0
		if row.OptimumMoved {
			moved = 1
		}
		writeRow(w, prior, row.Weight, row.PStar, row.MeanDeltaE, moved)
	}
}
