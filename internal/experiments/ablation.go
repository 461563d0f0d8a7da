package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/annealer"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/qubo"
)

// This file implements the ablation studies DESIGN.md calls out: the
// paper's §5 proposal of application-specific classical modules, and the
// simulator's own design choices (dynamics engine, energy-scale profile,
// end-of-anneal quench, Chimera embedding).

// ModuleAblationRow scores one classical module as the hybrid's
// initializer on a corpus of instances.
type ModuleAblationRow struct {
	Module string
	// MeanDeltaEIS is the mean candidate quality the module delivers.
	MeanDeltaEIS float64
	// GroundRate is the fraction of instances where the module alone
	// already finds the optimum.
	GroundRate float64
	// HybridPStar is the mean per-read RA success probability when the
	// module initializes the anneal.
	HybridPStar float64
	// SolveRate is the fraction of instances the full hybrid decodes to
	// the ML optimum (best sample or candidate).
	SolveRate float64
}

// ModuleAblation is the §5 study: GS vs linear vs tree-search vs SA
// initializers feeding the same RA quantum module.
type ModuleAblation struct {
	Rows      []ModuleAblationRow
	Users     int
	Scheme    modulation.Scheme
	Instances int
}

// RunModuleAblation compares classical modules on a NOISY 16-QAM corpus
// (14 dB receive SNR): with AWGN the linear detectors no longer recover
// the ML optimum for free, so candidate quality genuinely varies across
// modules, as §5 anticipates.
func RunModuleAblation(cfg Config) (*ModuleAblation, error) {
	cfg = cfg.withDefaults()
	const users = 6
	insts, err := instance.Corpus(instance.Spec{
		Users: users, Scheme: modulation.QAM16,
		NoiseVariance: channel.NoiseVarianceForSNR(14, users),
	}, cfg.Seed^0xAB1, cfg.Instances)
	if err != nil {
		return nil, err
	}
	modules := []core.ClassicalModule{
		core.GreedyModule{},
		core.DetectorModule{Detector: mimo.ZeroForcing{}},
		core.DetectorModule{Detector: mimo.KBest{K: 8}},
		core.DetectorModule{Detector: mimo.FCSD{FullExpansion: 2}},
		core.SAModule{Opts: qubo.SAOptions{Sweeps: 200}},
		core.RandomModule{},
	}
	root := cfg.root().SplitString("ablation/module")
	res := &ModuleAblation{Users: users, Scheme: modulation.QAM16, Instances: cfg.Instances}
	for mi, m := range modules {
		row := ModuleAblationRow{Module: m.Name()}
		for ii, in := range insts {
			r := root.Split(uint64(mi*1000 + ii))
			init, err := m.Initialize(in.Reduction, r.SplitString("classical"))
			if err != nil {
				return nil, err
			}
			d := metrics.DeltaEForIsing(in.Reduction.Ising,
				in.Reduction.Ising.Energy(init), in.GroundEnergy)
			row.MeanDeltaEIS += d
			if d <= 1e-9 {
				row.GroundRate++
			}
			h := &core.Hybrid{
				Classical: core.FixedModule{State: init},
				NumReads:  cfg.Reads,
				Config:    cfg.annealConfig(),
			}
			out, err := h.Solve(in.Reduction, r.SplitString("hybrid"))
			if err != nil {
				return nil, err
			}
			row.HybridPStar += metrics.SuccessProbability(out.Samples, in.GroundEnergy, 1e-6)
			if out.Best.Energy <= in.GroundEnergy+1e-6 {
				row.SolveRate++
			}
		}
		n := float64(len(insts))
		row.MeanDeltaEIS /= n
		row.GroundRate /= n
		row.HybridPStar /= n
		row.SolveRate /= n
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteTable renders the module ablation.
func (r *ModuleAblation) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Ablation: classical modules feeding RA (%d-user %s, %d instances)\n",
		r.Users, r.Scheme, r.Instances)
	writeRow(w, "module", "dE_IS%", "gnd_rate", "ra_p", "solve_rate")
	for _, row := range r.Rows {
		writeRow(w, row.Module, row.MeanDeltaEIS, row.GroundRate, row.HybridPStar, row.SolveRate)
	}
}

// DeviceAblationRow scores one simulator configuration on the Figure 8
// mechanism set.
type DeviceAblationRow struct {
	Variant string
	// RetentionHighSp is RA(ground init) p★ at s_p = 0.93 (freeze-out).
	RetentionHighSp float64
	// RepairMidSp is RA(imperfect init) p★ at its best mid s_p.
	RepairMidSp float64
	// FAPStar is forward annealing's best p★ over the grid.
	FAPStar float64
	// BrokenChainRate reports chain breakage for embedded variants.
	BrokenChainRate float64
}

// DeviceAblation compares simulator design choices.
type DeviceAblation struct {
	Rows  []DeviceAblationRow
	Users int
}

// RunDeviceAblation evaluates engine, profile, quench, and embedding
// choices against the three mechanisms the reproduction rests on:
// high-s_p retention, mid-s_p repair, and a diabatic FA baseline.
func RunDeviceAblation(cfg Config) (*DeviceAblation, error) {
	cfg = cfg.withDefaults()
	const users = 6
	in, err := instance.Synthesize(instance.Spec{Users: users, Scheme: modulation.QAM16, Seed: cfg.Seed ^ 0xDE7})
	if err != nil {
		return nil, err
	}
	is := in.Reduction.Ising
	root := cfg.root().SplitString("ablation/device")

	physical := annealer.DWave2000QProfile()
	linear := annealer.LinearProfile()
	type variant struct {
		name     string
		mutate   func(*annealer.Params)
		embedded bool
	}
	variants := []variant{
		{name: "calibrated", mutate: func(*annealer.Params) {}},
		{name: "svmc-tf", mutate: func(p *annealer.Params) { p.Engine = annealer.SVMC{TFMoves: true} }},
		{name: "pimc", mutate: func(p *annealer.Params) { p.Engine = annealer.PIMC{Slices: 12} }},
		{name: "physical-temp", mutate: func(p *annealer.Params) { p.Profile = &physical }},
		{name: "linear-profile", mutate: func(p *annealer.Params) { p.Profile = &linear }},
		{name: "no-quench", mutate: func(p *annealer.Params) { p.NoQuench = true }},
		{name: "ice-noise", mutate: func(p *annealer.Params) { p.ICE = annealer.DWave2000QICE() }},
		{name: "embedded", mutate: func(*annealer.Params) {}, embedded: true},
	}

	// Imperfect candidate for the repair probe.
	imperfect, _ := stateAtQuality(is, in.GroundSpins, in.GroundEnergy, 4, root.SplitString("imperfect"))

	res := &DeviceAblation{Users: users}
	qpu := annealer.NewQPU2000Q()
	qpu.Chains = true
	for vi, v := range variants {
		row := DeviceAblationRow{Variant: v.name}
		r := root.Split(uint64(vi))
		run := func(sc *annealer.Schedule, init []int8, key string) (*annealer.Result, error) {
			p := cfg.annealParams(sc, init, cfg.Reads)
			v.mutate(&p)
			if v.embedded {
				return qpu.Run(is, p, r.SplitString(key))
			}
			return annealer.Run(is, p, r.SplitString(key))
		}
		// Retention: RA from ground at high s_p.
		ra93, err := annealer.Reverse(0.93, 1)
		if err != nil {
			return nil, err
		}
		out, err := run(ra93, in.GroundSpins, "retention")
		if err != nil {
			return nil, err
		}
		row.RetentionHighSp = metrics.SuccessProbability(out.Samples, in.GroundEnergy, 1e-6)
		// Repair: RA from the imperfect candidate, best of mid s_p.
		for _, sp := range []float64{0.37, 0.45, 0.53, 0.61} {
			ra, err := annealer.Reverse(sp, 1)
			if err != nil {
				return nil, err
			}
			out, err = run(ra, imperfect, fmt.Sprintf("repair/%0.2f", sp))
			if err != nil {
				return nil, err
			}
			if p := metrics.SuccessProbability(out.Samples, in.GroundEnergy, 1e-6); p > row.RepairMidSp {
				row.RepairMidSp = p
			}
		}
		// FA baseline: best over a small s_p grid.
		for _, sp := range []float64{0.29, 0.41, 0.61, 0.85} {
			fa, err := annealer.Forward(1, sp, 1)
			if err != nil {
				return nil, err
			}
			out, err = run(fa, nil, fmt.Sprintf("fa/%0.2f", sp))
			if err != nil {
				return nil, err
			}
			if p := metrics.SuccessProbability(out.Samples, in.GroundEnergy, 1e-6); p > row.FAPStar {
				row.FAPStar = p
			}
			// Chain breakage is most visible when chains must form from
			// scratch: record the worst FA run's rate.
			if out.BrokenChainRate > row.BrokenChainRate {
				row.BrokenChainRate = out.BrokenChainRate
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteTable renders the device ablation.
func (r *DeviceAblation) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Ablation: simulator design choices (%d-user 16-QAM)\n", r.Users)
	writeRow(w, "variant", "retain@.93", "repair_mid", "fa_best", "broken")
	for _, row := range r.Rows {
		writeRow(w, row.Variant, row.RetentionHighSp, row.RepairMidSp, row.FAPStar, row.BrokenChainRate)
	}
}

// GreedyOrderAblation resolves the paper's §4.1 prose ambiguity
// empirically: candidate quality of ascending vs descending greedy bit
// ordering over a corpus.
type GreedyOrderAblation struct {
	Instances                 int
	MeanDeltaEISDescending    float64
	MeanDeltaEISAscending     float64
	DescendingWinsOrTiesCount int
}

// RunGreedyOrderAblation measures both GS orderings.
func RunGreedyOrderAblation(cfg Config) (*GreedyOrderAblation, error) {
	cfg = cfg.withDefaults()
	insts, err := instance.Corpus(instance.Spec{Users: 8, Scheme: modulation.QAM16},
		cfg.Seed^0x69D, cfg.Instances*4)
	if err != nil {
		return nil, err
	}
	res := &GreedyOrderAblation{Instances: len(insts)}
	for _, in := range insts {
		is := in.Reduction.Ising
		desc := qubo.GreedySearchIsing(is, qubo.OrderDescending)
		asc := qubo.GreedySearchIsing(is, qubo.OrderAscending)
		dd := metrics.DeltaEForIsing(is, is.Energy(desc), in.GroundEnergy)
		da := metrics.DeltaEForIsing(is, is.Energy(asc), in.GroundEnergy)
		res.MeanDeltaEISDescending += dd
		res.MeanDeltaEISAscending += da
		if dd <= da+1e-9 {
			res.DescendingWinsOrTiesCount++
		}
	}
	n := float64(len(insts))
	res.MeanDeltaEISDescending /= n
	res.MeanDeltaEISAscending /= n
	return res, nil
}

// WriteTable renders the greedy-order ablation.
func (r *GreedyOrderAblation) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Ablation: greedy-search bit ordering (%d instances, 8-user 16-QAM)\n", r.Instances)
	writeRow(w, "order", "mean_dE_IS%")
	writeRow(w, "descending", r.MeanDeltaEISDescending)
	writeRow(w, "ascending", r.MeanDeltaEISAscending)
	frac := float64(r.DescendingWinsOrTiesCount) / math.Max(1, float64(r.Instances))
	fmt.Fprintf(w, "descending wins or ties on %.0f%% of instances\n", 100*frac)
}
