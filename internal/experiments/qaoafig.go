package experiments

import (
	"fmt"
	"io"

	"repro/internal/annealer"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/modulation"
	"repro/internal/qaoa"
	"repro/internal/qubo"
)

// QAOARow compares the two NISQ approaches of §2 on one workload size.
type QAOARow struct {
	Users  int
	Scheme modulation.Scheme
	Qubits int
	// QAOA success probabilities: depth 1 cost-optimized, depth 3
	// layerwise cost-optimized, and the depth-1 oracle (success-selected
	// angles — the best the method could achieve at p=1).
	QAOAP1, QAOAP3, QAOAP1Oracle float64
	// FA and RA-GS per-read success probabilities on the calibrated
	// annealer simulation.
	FAPStar float64
	RAPStar float64
}

// QAOAResult is the gate-model-vs-annealing extension study.
type QAOAResult struct {
	Rows      []QAOARow
	Instances int
}

// RunQAOA compares QAOA (exact statevector, the digital NISQ path) with
// the annealing simulation on detection instances small enough for exact
// simulation. The two columns are not on equal footing — QAOA here is an
// ideal noiseless device, the annealer a calibrated noisy surrogate —
// so the table reads as "what the gate-model approach could offer at
// these sizes", the §2 framing.
func RunQAOA(cfg Config) (*QAOAResult, error) {
	cfg = cfg.withDefaults()
	workloads := []struct {
		users  int
		scheme modulation.Scheme
	}{
		{2, modulation.QAM16}, // 8 qubits
		{4, modulation.QPSK},  // 8 qubits
		{3, modulation.QAM16}, // 12 qubits
		{4, modulation.QAM16}, // 16 qubits
	}
	res := &QAOAResult{Instances: cfg.Instances}
	root := cfg.root().SplitString("qaoa")
	for wi, w := range workloads {
		row := QAOARow{Users: w.users, Scheme: w.scheme, Qubits: w.users * w.scheme.BitsPerSymbol()}
		insts, err := instance.Corpus(instance.Spec{Users: w.users, Scheme: w.scheme},
			cfg.Seed^uint64(0x0A0A+wi), cfg.Instances)
		if err != nil {
			return nil, err
		}
		for ii, in := range insts {
			r := root.Split(uint64(wi*1000 + ii))
			circ, err := qaoa.Compile(in.Reduction.Ising)
			if err != nil {
				return nil, err
			}
			p1, err := circ.OptimizeGrid(10, 0)
			if err != nil {
				return nil, err
			}
			p3, err := circ.ExtendDepth(p1, 2, 8, 0)
			if err != nil {
				return nil, err
			}
			row.QAOAP1 += p1.SuccessProbability
			row.QAOAP3 += p3.SuccessProbability
			oracle, err := circ.OptimizeGridOracle(10, 0)
			if err != nil {
				return nil, err
			}
			row.QAOAP1Oracle += oracle.SuccessProbability

			fa, err := annealer.Forward(core.AnnealMicros, core.FASp, core.PauseMicros)
			if err != nil {
				return nil, err
			}
			fres, err := annealer.Run(in.Reduction.Ising, cfg.annealParams(fa, nil, cfg.Reads), r.SplitString("fa"))
			if err != nil {
				return nil, err
			}
			row.FAPStar += metrics.SuccessProbability(fres.Samples, in.GroundEnergy, 1e-6)

			ra, err := annealer.Reverse(core.RASp, core.PauseMicros)
			if err != nil {
				return nil, err
			}
			gs := qubo.GreedySearchIsing(in.Reduction.Ising, qubo.OrderDescending)
			rres, err := annealer.Run(in.Reduction.Ising, cfg.annealParams(ra, gs, cfg.Reads), r.SplitString("ra"))
			if err != nil {
				return nil, err
			}
			row.RAPStar += metrics.SuccessProbability(rres.Samples, in.GroundEnergy, 1e-6)
		}
		n := float64(len(insts))
		row.QAOAP1 /= n
		row.QAOAP3 /= n
		row.QAOAP1Oracle /= n
		row.FAPStar /= n
		row.RAPStar /= n
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteTable renders the comparison.
func (r *QAOAResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Extension: QAOA (ideal gate model) vs annealing simulation (%d instances/row)\n", r.Instances)
	writeRow(w, "workload", "qubits", "qaoa_p1", "qaoa_p3", "p1_oracle", "fa_p", "ra_gs_p")
	for _, row := range r.Rows {
		label := fmt.Sprintf("%du-%s", row.Users, row.Scheme)
		writeRow(w, label, row.Qubits, row.QAOAP1, row.QAOAP3, row.QAOAP1Oracle, row.FAPStar, row.RAPStar)
	}
}
