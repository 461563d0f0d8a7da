package experiments

import (
	"fmt"
	"io"

	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
)

// Fig3Point is one (modulation, size) measurement of the §3.1 QUBO-
// simplification scheme: the fraction of instances where Lewis–Glover
// fixing removed at least one variable (left panel) and the mean number
// of fixed variables among simplified instances (right panel).
type Fig3Point struct {
	Scheme          modulation.Scheme `json:"scheme"`
	Variables       int               `json:"variables"`
	SimplifiedRatio float64           `json:"simplified_ratio"`
	AvgFixed        float64           `json:"avg_fixed"`
	// Simplified is the success count behind SimplifiedRatio — the
	// point's sample vector (out of the result's Instances trials) for
	// confidence intervals.
	Simplified int `json:"simplified"`
}

// Fig3Result is the full Figure 3 sweep.
type Fig3Result struct {
	Points []Fig3Point `json:"points"`
	// Instances per point.
	Instances int `json:"instances"`
}

// Figure3 sweeps problem sizes (in QUBO variables) per modulation and
// measures the simplification scheme on `cfg.Instances` random instances
// each. The paper uses 50 instances per point across sizes up to the
// regime where simplification vanishes (32–40 variables).
func Figure3(cfg Config, maxVars int) (*Fig3Result, error) {
	cfg = cfg.withDefaults()
	if maxVars <= 0 {
		maxVars = 48
	}
	res := &Fig3Result{Instances: cfg.Instances}
	// The paper's Figure 3 covers BPSK, QPSK and 16-QAM.
	for _, s := range []modulation.Scheme{modulation.BPSK, modulation.QPSK, modulation.QAM16} {
		b := s.BitsPerSymbol()
		for vars := b; vars <= maxVars; vars += b {
			users := vars / b
			insts, err := instance.Corpus(instance.Spec{Users: users, Scheme: s},
				cfg.Seed^uint64(vars*131+int(s)), cfg.Instances)
			if err != nil {
				return nil, err
			}
			simplified, fixedSum := 0, 0
			for _, in := range insts {
				pre := qubo.Preprocess(in.Reduction.Ising.ToQUBO())
				if pre.Simplified {
					simplified++
					fixedSum += len(pre.Fixed)
				}
			}
			pt := Fig3Point{Scheme: s, Variables: vars, Simplified: simplified}
			pt.SimplifiedRatio = float64(simplified) / float64(cfg.Instances)
			if simplified > 0 {
				pt.AvgFixed = float64(fixedSum) / float64(simplified)
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// WriteTable renders the figure's two panels as rows.
func (r *Fig3Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Figure 3: QUBO simplification vs problem size (%d instances/point)\n", r.Instances)
	writeRow(w, "scheme", "vars", "ratio", "avg_fixed")
	for _, p := range r.Points {
		writeRow(w, p.Scheme.String(), p.Variables, p.SimplifiedRatio, p.AvgFixed)
	}
}
