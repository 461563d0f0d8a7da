package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/modulation"
)

// Fig6Algorithm labels the three compared samplers of Figure 6.
type Fig6Algorithm string

// The three panels of Figure 6.
const (
	Fig6FA       Fig6Algorithm = "FA"
	Fig6RARandom Fig6Algorithm = "RA-random"
	Fig6RAGS     Fig6Algorithm = "RA-GS"
)

// Fig6Series is one (modulation, algorithm) sample distribution.
type Fig6Series struct {
	Scheme    modulation.Scheme `json:"scheme"`
	Algorithm Fig6Algorithm     `json:"algorithm"`
	// Hist is the ΔE% distribution over all anneal samples of all
	// instances (0–100%, 25 bins as plotted) — the series' sample vector
	// in binned form.
	Hist *metrics.Histogram `json:"hist"`
	// MeanDeltaE and GroundFraction summarize the distribution.
	MeanDeltaE     float64 `json:"mean_delta_e"`
	GroundFraction float64 `json:"ground_fraction"`
	// GroundHits is the success count behind GroundFraction.
	GroundHits int `json:"ground_hits"`
	Samples    int `json:"samples"`
}

// Fig6Result is the full figure.
type Fig6Result struct {
	Series    []*Fig6Series `json:"series"`
	Variables int           `json:"variables"`
	Instances int           `json:"instances"`
	Reads     int           `json:"reads"`
}

// Figure6 reproduces the §4.3 distribution study: 36-variable decoding
// problems per modulation, solved by FA, RA from a random initial state,
// and RA from the greedy-search state (the hybrid prototype), with the
// ΔE% of every anneal sample recorded.
func Figure6(cfg Config, variables int) (*Fig6Result, error) {
	cfg = cfg.withDefaults()
	if variables <= 0 {
		variables = 36
	}
	res := &Fig6Result{Variables: variables, Instances: cfg.Instances, Reads: cfg.Reads}
	root := cfg.root()
	for _, s := range modulation.Schemes {
		users, err := instance.VariableBudgetUsers(s, variables)
		if err != nil {
			return nil, err
		}
		insts, err := instance.Corpus(instance.Spec{Users: users, Scheme: s},
			cfg.Seed^uint64(1000+int(s)), cfg.Instances)
		if err != nil {
			return nil, err
		}
		series := map[Fig6Algorithm]*Fig6Series{}
		for _, alg := range []Fig6Algorithm{Fig6FA, Fig6RARandom, Fig6RAGS} {
			series[alg] = &Fig6Series{
				Scheme: s, Algorithm: alg,
				Hist: metrics.NewHistogram(0, 100, 25),
			}
		}
		for ii, in := range insts {
			r := root.SplitString(fmt.Sprintf("fig6/%s/%d", s, ii))
			outs := map[Fig6Algorithm]*core.Outcome{}
			fa := &core.ForwardSolver{NumReads: cfg.Reads, Config: cfg.annealConfig()}
			out, err := fa.Solve(in.Reduction, r.SplitString("fa"))
			if err != nil {
				return nil, err
			}
			outs[Fig6FA] = out
			raRand := &core.Hybrid{Classical: core.RandomModule{}, NumReads: cfg.Reads, Config: cfg.annealConfig()}
			out, err = raRand.Solve(in.Reduction, r.SplitString("ra-random"))
			if err != nil {
				return nil, err
			}
			outs[Fig6RARandom] = out
			raGS := &core.Hybrid{NumReads: cfg.Reads, Config: cfg.annealConfig()}
			out, err = raGS.Solve(in.Reduction, r.SplitString("ra-gs"))
			if err != nil {
				return nil, err
			}
			outs[Fig6RAGS] = out

			for alg, o := range outs {
				sr := series[alg]
				for _, sample := range o.Samples {
					d := metrics.DeltaEForIsing(in.Reduction.Ising, sample.Energy, in.GroundEnergy)
					sr.Hist.Add(d)
					sr.MeanDeltaE += d
					if d <= 1e-6 {
						sr.GroundHits++
					}
					sr.Samples++
				}
			}
		}
		for _, alg := range []Fig6Algorithm{Fig6FA, Fig6RARandom, Fig6RAGS} {
			sr := series[alg]
			if sr.Samples > 0 {
				sr.MeanDeltaE /= float64(sr.Samples)
				sr.GroundFraction = float64(sr.GroundHits) / float64(sr.Samples)
			}
			res.Series = append(res.Series, sr)
		}
	}
	return res, nil
}

// WriteTable renders the distributions and their summaries.
func (r *Fig6Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Figure 6: ΔE%% distribution over %d-variable instances (%d instances × %d reads)\n",
		r.Variables, r.Instances, r.Reads)
	writeRow(w, "scheme", "algorithm", "mean_dE%", "p(dE=0)")
	for _, sr := range r.Series {
		writeRow(w, sr.Scheme.String(), string(sr.Algorithm), sr.MeanDeltaE, sr.GroundFraction)
	}
	fmt.Fprintln(w, "\n# per-bin fractions (bin_center fraction), series in order above:")
	for _, sr := range r.Series {
		fmt.Fprintf(w, "## %s %s\n%s", sr.Scheme, sr.Algorithm, sr.Hist.String())
	}
}
