package validate

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/cran"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// GoldenFigures lists the figures under golden-baseline regression, in
// run order.
var GoldenFigures = []string{"3", "4", "6", "7", "8", "pipeline", "fleet", "cran", "hybrid", "ensemble"}

// exactCI wraps a value the simulation reproduces bit-for-bit from a
// fixed seed: a degenerate interval, so any change at all is drift.
func exactCI(v float64) metrics.CI {
	return metrics.CI{Value: v, Lo: v, Hi: v, Confidence: 100, N: 1}
}

// bandCI wraps a deterministic scalar in an explicit tolerance band.
// Timing-model and sweep-kernel refinements legitimately move these
// values a little; the band encodes how much drift the baseline accepts
// (rel of |v|, with abs as the floor for near-zero values).
func bandCI(v, rel, abs float64) metrics.CI {
	slack := math.Abs(v) * rel
	if slack < abs {
		slack = abs
	}
	return metrics.CI{Value: v, Lo: v - slack, Hi: v + slack, Confidence: 100, N: 1}
}

// RunGoldenFigure executes one figure at the options' scale and distills
// its golden metrics. Counted statistics carry Wilson intervals, sampled
// vectors bootstrap intervals, and deterministic model outputs explicit
// tolerance bands.
func RunGoldenFigure(name string, opts Options) (*Golden, error) {
	cfg := opts.config()
	g := &Golden{
		Schema: GoldenSchema, Figure: name,
		Seed: cfg.Seed, Instances: cfg.Instances, Reads: cfg.Reads,
	}
	boot := rng.New(cfg.Seed).SplitString("golden/" + name)
	var res any
	var err error
	switch name {
	case "3":
		var r *experiments.Fig3Result
		r, err = experiments.Figure3(cfg, 0)
		if err == nil {
			res = r
			small, smallN, large, largeN := 0, 0, 0, 0
			for _, p := range r.Points {
				switch {
				case p.Variables <= 12:
					small += p.Simplified
					smallN += r.Instances
				case p.Variables >= 40:
					large += p.Simplified
					largeN += r.Instances
				}
			}
			g.add("fig3/small_simplified_ratio", metrics.WilsonCI(small, smallN))
			g.add("fig3/large_simplified_ratio", metrics.WilsonCI(large, largeN))
			g.add("fig3/points", exactCI(float64(len(r.Points))))
		}
	case "4":
		var r *experiments.Fig4Result
		r, err = experiments.Figure4(cfg)
		if err == nil {
			res = r
			for _, row := range r.Rows {
				key := fmt.Sprintf("fig4/w%g_wrong%t", row.Weight, row.PriorWrong)
				g.add(key+"/p_star", metrics.WilsonCI(row.Hits, row.Samples))
				moved := 0.0
				if row.OptimumMoved {
					moved = 1
				}
				g.add(key+"/optimum_moved", exactCI(moved))
			}
		}
	case "6":
		var r *experiments.Fig6Result
		r, err = experiments.Figure6(cfg, 0)
		if err == nil {
			res = r
			for _, sr := range r.Series {
				key := fmt.Sprintf("fig6/%s/%s", sr.Scheme, sr.Algorithm)
				g.add(key+"/ground_fraction", metrics.WilsonCI(sr.GroundHits, sr.Samples))
				g.add(key+"/mean_delta_e", bandCI(sr.MeanDeltaE, 0.25, 0.5))
			}
		}
	case "7":
		var r *experiments.Fig7Result
		r, err = experiments.Figure7(cfg)
		if err == nil {
			res = r
			for _, p := range r.Points {
				g.add(fmt.Sprintf("fig7/dE%g/p_star", p.DeltaEIS),
					metrics.BootstrapMeanCI(p.PStars, bootstrapResamples, bootstrapConfidence, boot))
			}
			mono := 0.0
			if r.Monotone() {
				mono = 1
			}
			g.add("fig7/monotone", exactCI(mono))
		}
	case "8":
		var r *experiments.Fig8Result
		r, err = experiments.Figure8(cfg)
		if err == nil {
			res = r
			if fa, ok := r.BestTTS(experiments.Fig8FA); ok {
				g.add("fig8/fa/best_tts", bandCI(fa.TTS, 0.3, 2))
			}
			if fam, ok := r.BestFamilyTTS(); ok {
				g.add("fig8/family/best_tts", bandCI(fam.TTS, 0.3, 1))
			}
			if lo, hi, ok := r.FamilySuccessWindow(); ok {
				g.add("fig8/family/window_lo", bandCI(lo, 0, 0.045))
				g.add("fig8/family/window_hi", bandCI(hi, 0, 0.045))
			}
			for _, p := range r.PointsFor(experiments.Fig8RAGS) {
				if math.Abs(p.Sp-0.45) < 1e-9 || math.Abs(p.Sp-0.97) < 1e-9 {
					g.add(fmt.Sprintf("fig8/ra_gs/p_star@%.2f", p.Sp),
						metrics.WilsonCI(p.Successes, p.Reads))
				}
			}
		}
	case "pipeline":
		var r *experiments.PipelineResult
		r, err = experiments.PipelineFigure(cfg, 0)
		if err == nil {
			res = r
			g.add("pipeline/speedup_makespan", bandCI(r.SpeedupMakespan, 0.15, 0.1))
			g.add("pipeline/decode_rate",
				metrics.WilsonCI(int(r.DecodeRate*float64(r.Frames)+0.5), r.Frames))
		}
	case "fleet":
		var r *experiments.FleetScalingResult
		r, err = experiments.RunFleetScaling(cfg, 0, 0)
		if err == nil {
			res = r
			for _, row := range r.Rows {
				key := fmt.Sprintf("fleet/devices%d", row.Devices)
				g.add(key+"/speedup", bandCI(row.Speedup, 0.2, 0.2))
				g.add(key+"/served", exactCI(float64(row.Served)))
				g.add(key+"/miss_rate", bandCI(row.DeadlineMissRate, 0.25, 0.05))
			}
		}
	case "cran":
		// Reduced tier (4 shards × 4 QPUs, 48 cells) so the golden check
		// stays fast; the committed figure and bench records carry the full
		// 8-shard, 200-cell scale.
		var r *experiments.CRANResult
		r, err = experiments.RunCRAN(cfg, 4, 48, cran.PlacementHash)
		if err == nil {
			res = r
			for _, row := range r.Scaling {
				key := fmt.Sprintf("cran/shards%d", row.Shards)
				g.add(key+"/speedup", bandCI(row.Speedup, 0.2, 0.2))
				g.add(key+"/served", exactCI(float64(row.Served)))
			}
			for _, row := range r.Load {
				g.add(fmt.Sprintf("cran/load%gx/shed_rate", row.Multiplier),
					bandCI(row.ShedRate, 0.3, 0.05))
			}
		}
	case "hybrid":
		var r *experiments.HybridResult
		r, err = experiments.RunHybrid(cfg)
		if err == nil {
			res = r
			for _, row := range r.Rows {
				key := fmt.Sprintf("hybrid/%s/load%gx", row.Pool, row.Load)
				g.add(key+"/hit_rate", bandCI(row.DeadlineHitRate, 0.15, 0.05))
				g.add(key+"/served", exactCI(float64(row.Served)))
				g.add(key+"/classical_frames", exactCI(float64(row.ClassicalFrames)))
			}
		}
	case "ensemble":
		var r *experiments.EnsembleResult
		r, err = experiments.RunEnsemble(cfg, 0, nil)
		if err == nil {
			res = r
			for _, row := range r.Rows {
				key := "ensemble/" + row.Variant
				g.add(key+"/success", metrics.WilsonCI(row.Successes, row.Uses))
				g.add(key+"/soft_info_ber", metrics.WilsonCI(row.SoftInfoErrs, row.InfoBits))
				g.add(key+"/arms", exactCI(float64(row.Arms)))
			}
		}
	default:
		return nil, fmt.Errorf("validate: unknown golden figure %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("validate: figure %s: %w", name, err)
	}
	if g.Result, err = json.Marshal(res); err != nil {
		return nil, fmt.Errorf("validate: figure %s: %w", name, err)
	}
	return g, nil
}

func (g *Golden) add(name string, ci metrics.CI) {
	g.Metrics = append(g.Metrics, Metric{Name: name, CI: ci})
}

// UpdateGoldens regenerates every figure baseline under dir.
func UpdateGoldens(dir string, opts Options) error {
	for _, name := range GoldenFigures {
		g, err := RunGoldenFigure(name, opts)
		if err != nil {
			return err
		}
		if err := WriteGolden(dir, g); err != nil {
			return err
		}
	}
	return nil
}

// CheckGoldens re-runs every figure and diffs it against the committed
// baselines, accumulating one drift report.
func CheckGoldens(dir string, opts Options) (*DriftReport, error) {
	rep := &DriftReport{Schema: GoldenSchema}
	for _, name := range GoldenFigures {
		old, err := LoadGolden(dir, name)
		if err != nil {
			return nil, err
		}
		cur, err := RunGoldenFigure(name, opts)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, CompareGolden(old, cur)...)
	}
	return rep, nil
}
