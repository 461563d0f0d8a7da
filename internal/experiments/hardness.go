package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/qubo"

	"repro/internal/modulation"
)

// HardnessRow aggregates instances whose channel condition number falls
// in one bucket.
type HardnessRow struct {
	// KappaLo/KappaHi bound the bucket (condition number).
	KappaLo, KappaHi float64
	Instances        int
	// MeanGSDeltaE is the greedy candidate's mean quality. Note ΔE%% is
	// normalized per instance, so it is reported for context but is not a
	// cross-bucket hardness signal; the success probabilities are.
	MeanGSDeltaE float64
	// FAPStar / HybridPStar are mean per-read success probabilities.
	FAPStar     float64
	HybridPStar float64
}

// HardnessResult is the channel-conditioning study — an extension
// experiment: ill-conditioned channels are simultaneously where linear
// detection collapses (the paper's motivation) and where the Ising
// landscape gets rugged, quantifying WHICH channel uses a base station
// should route to the quantum path.
type HardnessResult struct {
	Users  int
	Scheme modulation.Scheme
	Rows   []HardnessRow
}

// RunHardness draws channels across correlation strengths (to spread the
// conditioning), buckets instances by condition number, and measures
// greedy quality plus FA/hybrid success per bucket.
func RunHardness(cfg Config) (*HardnessResult, error) {
	cfg = cfg.withDefaults()
	const users = 4
	scheme := modulation.QAM16
	edges := []float64{1, 4, 10, 30, math.Inf(1)}
	rows := make([]HardnessRow, len(edges)-1)
	for i := range rows {
		rows[i] = HardnessRow{KappaLo: edges[i], KappaHi: edges[i+1]}
	}
	root := cfg.root().SplitString("hardness")
	perRho := cfg.Instances * 2
	for ri, rho := range []float64{0, 0.5, 0.8, 0.92} {
		ch := channel.Rayleigh
		insts, err := instance.Corpus(instance.Spec{
			Users: users, Scheme: scheme, Channel: ch, Correlation: rho,
		}, cfg.Seed^uint64(0x4A0+ri), perRho)
		if err != nil {
			return nil, err
		}
		for ii, in := range insts {
			kappa, err := in.Problem.H.ConditionNumber()
			if err != nil {
				return nil, err
			}
			bi := bucketOf(edges, kappa)
			if bi < 0 {
				continue
			}
			r := root.Split(uint64(ri*1_000 + ii))
			gs := qubo.GreedySearchIsing(in.Reduction.Ising, qubo.OrderDescending)
			d := metrics.DeltaEForIsing(in.Reduction.Ising, in.Reduction.Ising.Energy(gs), in.GroundEnergy)

			fa := &core.ForwardSolver{NumReads: cfg.Reads / 2, Config: cfg.annealConfig()}
			fo, err := fa.Solve(in.Reduction, r.SplitString("fa"))
			if err != nil {
				return nil, err
			}
			hy := &core.Hybrid{NumReads: cfg.Reads / 2, Config: cfg.annealConfig()}
			ho, err := hy.Solve(in.Reduction, r.SplitString("hybrid"))
			if err != nil {
				return nil, err
			}
			row := &rows[bi]
			row.Instances++
			row.MeanGSDeltaE += d
			row.FAPStar += metrics.SuccessProbability(fo.Samples, in.GroundEnergy, 1e-6)
			row.HybridPStar += metrics.SuccessProbability(ho.Samples, in.GroundEnergy, 1e-6)
		}
	}
	for i := range rows {
		if rows[i].Instances > 0 {
			n := float64(rows[i].Instances)
			rows[i].MeanGSDeltaE /= n
			rows[i].FAPStar /= n
			rows[i].HybridPStar /= n
		}
	}
	return &HardnessResult{Users: users, Scheme: scheme, Rows: rows}, nil
}

func bucketOf(edges []float64, v float64) int {
	for i := 0; i+1 < len(edges); i++ {
		if v >= edges[i] && v < edges[i+1] {
			return i
		}
	}
	return -1
}

// WriteTable renders the study.
func (r *HardnessResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Extension: detection hardness vs channel condition number (%d-user %s)\n", r.Users, r.Scheme)
	writeRow(w, "kappa", "n", "gs_dE%", "fa_p", "hyb_p")
	for _, row := range r.Rows {
		label := fmt.Sprintf("%g-%g", row.KappaLo, row.KappaHi)
		writeRow(w, label, row.Instances, row.MeanGSDeltaE, row.FAPStar, row.HybridPStar)
	}
}
