package validate

import (
	"context"
	"fmt"
	"math"

	"repro/internal/annealer"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/cran"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// Claim is one paper invariant under statistical test.
type Claim struct {
	Name      string
	Figure    string
	Statement string
	// Eval samples until decided and returns the gated estimates plus
	// the reads (samples) it consumed.
	Eval func(e *Env) ([]Estimate, int, error)
}

// Claims returns the registered paper claims, in report order. Gates are
// calibrated against the committed seed-2020 tables with wide margins:
// each gate sits far enough from the measured value that an honest
// re-run decides quickly, and far enough from the null that a regressed
// solver crosses instead of stalling.
func Claims() []Claim {
	return []Claim{
		{
			Name:      "fig8-ra-beats-fa",
			Figure:    "8",
			Statement: "RA from a good candidate beats FA on success probability (p* ratio > 1.5 at each solver's favorable s_p)",
			Eval:      evalRABeatsFA,
		},
		{
			Name:      "fig8-freeze-erase",
			Figure:    "8",
			Statement: "RA-GS p*(s_p) is non-monotone: the mid-s_p peak beats both the frozen (s_p->1) and erased (s_p->0) ends",
			Eval:      evalFreezeErase,
		},
		{
			Name:      "fig8-tts-ordering",
			Figure:    "8",
			Statement: "TTS at s_p = 0.57: RA beats FA and FR-oracle by >= 1.25x; FR-oracle tracks FA (ratio in [0.7, 1.4])",
			Eval:      evalTTSOrdering,
		},
		{
			Name:      "fig3-simplification",
			Figure:    "3",
			Statement: "QUBO simplification fires on small problems (ratio > 0.5 at <= 12 vars) and vanishes on large ones (ratio < 0.3 at >= 40 vars)",
			Eval:      evalFig3Window,
		},
		{
			Name:      "fleet-speedup",
			Figure:    "fleet",
			Statement: "a multi-QPU fleet serves the reference workload >= 3x faster than one device",
			Eval:      evalFleetSpeedup,
		},
		{
			Name:      "cran-shard-scaling",
			Figure:    "cran",
			Statement: "the sharded C-RAN serving tier scales near-linearly: 4 shards serve the city workload >= 2.5x faster than one",
			Eval:      evalCRANShardScaling,
		},
		{
			Name:      "hybrid-routing",
			Figure:    "hybrid",
			Statement: "hardness/deadline-aware hybrid routing beats both the all-QPU and all-classical pools on mixed-workload deadline-hit rate",
			Eval:      evalHybridRouting,
		},
		{
			Name:      "ensemble-ra",
			Figure:    "ensemble",
			Statement: "flexible-parallelism RA (K=4 candidates x 3-point s_p grid) beats the single-RA arm on success probability by a CI-cleared margin",
			Eval:      evalEnsembleRA,
		},
		{
			Name:      "classical-ber-parity",
			Figure:    "hybrid",
			Statement: "a default simulated-annealing backend decodes easy uplink frames at BER parity with the QPU-sim hybrid (excess BER < 2%)",
			Eval:      evalClassicalBERParity,
		},
	}
}

// fig8Instance reproduces the Figure 7/8 study instance.
func (e *Env) fig8Instance() (*instance.Instance, error) {
	return instance.Synthesize(instance.Spec{
		Users: 8, Scheme: modulation.QAM16, Seed: e.opts.Config.Seed ^ 0x88,
	})
}

// candidate applies the ra-degraded injection: a regressed greedy-search
// module hands RA an uncorrelated random state instead of a near-ground
// candidate.
func (e *Env) candidate(good []int8, r *rng.Source) []int8 {
	if e.opts.Inject != "ra-degraded" {
		return good
	}
	bad := make([]int8, len(good))
	for i := range bad {
		bad[i] = 1
		if r.Bool() {
			bad[i] = -1
		}
	}
	return bad
}

// pVector is the arm's Bernoulli sample vector.
func pVector(a *arm) []float64 { return metrics.BernoulliVector(a.successes, a.trials) }

// evalRABeatsFA tests the headline Figure 8 separation: RA seeded with a
// representative-quality candidate (ΔE_IS% ≈ 5, the paper's yellow
// family) at its favorable s_p = 0.77 versus FA at its own best
// s_p = 0.41. Committed seed-2020 values: p*_RA ≈ 0.79, p*_FA ≈ 0.29
// (ratio ≈ 2.7); the gate of 1.5 leaves margin on both sides.
func evalRABeatsFA(e *Env) ([]Estimate, int, error) {
	in, err := e.fig8Instance()
	if err != nil {
		return nil, 0, err
	}
	is := in.Reduction.Ising
	r := e.claimRng("fig8-ra-beats-fa")
	cand, _ := experiments.CandidateAtQuality(is, in.GroundSpins, in.GroundEnergy, 5, r.SplitString("cand"))
	cand = e.candidate(cand, r.SplitString("inject"))

	fa, err := annealer.Forward(1, 0.41, 1)
	if err != nil {
		return nil, 0, err
	}
	ra, err := annealer.Reverse(0.77, 1)
	if err != nil {
		return nil, 0, err
	}
	faArm, err := e.newArm("fa", fa, nil, r.SplitString("fa"))
	if err != nil {
		return nil, 0, err
	}
	raArm, err := e.newArm("ra", ra, cand, r.SplitString("ra"))
	if err != nil {
		return nil, 0, err
	}
	boot := r.SplitString("bootstrap")
	judge := func() []Estimate {
		ci := metrics.BootstrapCI2(pVector(raArm), pVector(faArm), ratioStat,
			e.opts.Resamples, e.opts.Confidence, boot)
		return []Estimate{gradeAbove("p_star_ratio_ra_over_fa", ci, 1.5)}
	}
	arms := []*arm{raArm, faArm}
	return e.sequential(seqTest{round: e.armRound(arms, is, in.GroundEnergy), judge: judge})
}

// ratioStat is mean(xs)/mean(ys) with a +Inf guard for a zero
// denominator resample.
func ratioStat(xs, ys []float64) float64 {
	den := metrics.Mean(ys)
	if den == 0 {
		return math.Inf(1)
	}
	return metrics.Mean(xs) / den
}

// evalFreezeErase tests Figure 8's physics story for the RA-GS curve:
// reverse annealing from the greedy candidate peaks at intermediate s_p
// (≈ 0.45) and degrades toward BOTH ends — at s_p→1 the anneal freezes
// and merely returns the (excited) candidate, at s_p→0 the transverse
// field erases it. Committed seed-2020 values: p*(0.45) ≈ 0.38,
// p*(0.97) = 0.00, p*(0.25) ≈ 0.25.
func evalFreezeErase(e *Env) ([]Estimate, int, error) {
	in, err := e.fig8Instance()
	if err != nil {
		return nil, 0, err
	}
	is := in.Reduction.Ising
	r := e.claimRng("fig8-freeze-erase")
	cand := e.candidate(qubo.GreedySearchIsing(is, qubo.OrderDescending), r.SplitString("inject"))

	sps := []float64{0.45, 0.97, 0.25} // peak, frozen, erased
	arms := make([]*arm, len(sps))
	for i, sp := range sps {
		ra, err := annealer.Reverse(sp, 1)
		if err != nil {
			return nil, 0, err
		}
		arms[i], err = e.newArm(fmt.Sprintf("ra-gs@%.2f", sp), ra, cand, r.SplitString(fmt.Sprintf("sp/%g", sp)))
		if err != nil {
			return nil, 0, err
		}
	}
	peak, frozen, erased := arms[0], arms[1], arms[2]
	boot := r.SplitString("bootstrap")
	judge := func() []Estimate {
		freeze := metrics.BootstrapCI2(pVector(peak), pVector(frozen), diffStat,
			e.opts.Resamples, e.opts.Confidence, boot)
		erase := metrics.BootstrapCI2(pVector(peak), pVector(erased), diffStat,
			e.opts.Resamples, e.opts.Confidence, boot)
		return []Estimate{
			gradeAbove("p_peak_minus_p_frozen", freeze, 0.02),
			gradeAbove("p_peak_minus_p_erased", erase, 0.02),
		}
	}
	return e.sequential(seqTest{round: e.armRound(arms, is, in.GroundEnergy), judge: judge})
}

// diffStat is mean(xs) − mean(ys).
func diffStat(xs, ys []float64) float64 { return metrics.Mean(xs) - metrics.Mean(ys) }

// evalTTSOrdering tests the three-solver time-to-solution comparison at
// the paper's operating point s_p = 0.57. What survives honest
// sequential estimation on this surrogate is: RA from a good candidate
// beats both FA and the FR-oracle by a wide margin (measured ≈ 1.7×,
// gate 1.25×), while FR-oracle and FA are statistically close (honest
// ratio ≈ 0.9; gated to the band [0.7, 1.4]). The committed figure's
// stronger FA > FR > RA ordering rests on the oracle's argmax over
// 200-read c_p probes — winner's-curse inflation that continued
// sampling washes out; see DESIGN.md's Validation section. The FR
// oracle is reproduced as Figure 8 builds it — a probe round over the
// c_p grid (selected on probe TTS), then only the winner keeps
// sampling.
func evalTTSOrdering(e *Env) ([]Estimate, int, error) {
	in, err := e.fig8Instance()
	if err != nil {
		return nil, 0, err
	}
	is := in.Reduction.Ising
	r := e.claimRng("fig8-tts-ordering")
	const sp = 0.57
	cand, _ := experiments.CandidateAtQuality(is, in.GroundSpins, in.GroundEnergy, 5, r.SplitString("cand"))
	cand = e.candidate(cand, r.SplitString("inject"))

	fa, err := annealer.Forward(1, sp, 1)
	if err != nil {
		return nil, 0, err
	}
	ra, err := annealer.Reverse(sp, 1)
	if err != nil {
		return nil, 0, err
	}
	faArm, err := e.newArm("fa", fa, nil, r.SplitString("fa"))
	if err != nil {
		return nil, 0, err
	}
	raArm, err := e.newArm("ra", ra, cand, r.SplitString("ra"))
	if err != nil {
		return nil, 0, err
	}

	// Oracle probe: two batches per c_p candidate, keep the arm with the
	// best probe TTS (the oracle's own selection metric); its probe
	// counts stay in the estimate, like the figure's argmax construction,
	// but continued sampling dominates them.
	probeSpent := 0
	probeReads := 2 * e.opts.BatchReads
	var frArm *arm
	for cp := sp + 0.08; cp <= 1.0; cp += 0.08 {
		cp = math.Round(cp*100) / 100
		fr, err := annealer.ForwardReverse(cp, sp, 1, 1)
		if err != nil {
			return nil, 0, err
		}
		a, err := e.newArm(fmt.Sprintf("fr@%.2f", cp), fr, nil, r.SplitString(fmt.Sprintf("fr/%.2f", cp)))
		if err != nil {
			return nil, 0, err
		}
		if err := a.draw(is, in.GroundEnergy, probeReads); err != nil {
			return nil, probeSpent, err
		}
		probeSpent += probeReads
		if frArm == nil || metrics.TTS(a.dur, a.p(), 99) < metrics.TTS(frArm.dur, frArm.p(), 99) {
			frArm = a
		}
	}

	boot := r.SplitString("bootstrap")
	judge := func() []Estimate {
		faOverRA := metrics.BootstrapCI2(pVector(faArm), pVector(raArm), ttsRatioStat(faArm.dur, raArm.dur),
			e.opts.Resamples, e.opts.Confidence, boot)
		frOverRA := metrics.BootstrapCI2(pVector(frArm), pVector(raArm), ttsRatioStat(frArm.dur, raArm.dur),
			e.opts.Resamples, e.opts.Confidence, boot)
		faOverFR := metrics.BootstrapCI2(pVector(faArm), pVector(frArm), ttsRatioStat(faArm.dur, frArm.dur),
			e.opts.Resamples, e.opts.Confidence, boot)
		return []Estimate{
			gradeAbove("tts_fa_over_ra", faOverRA, 1.25),
			gradeAbove("tts_fr_over_ra", frOverRA, 1.25),
			gradeAbove("tts_fa_over_fr_lower", faOverFR, 0.7),
			gradeBelow("tts_fa_over_fr_upper", faOverFR, 1.4),
		}
	}
	arms := []*arm{faArm, frArm, raArm}
	return e.sequential(seqTest{round: e.armRound(arms, is, in.GroundEnergy), judge: judge, spent: probeSpent})
}

// ttsRatioStat builds the two-sample statistic TTS(durX, p̂x)/TTS(durY,
// p̂y) at the figures' C_t = 99%. A zero-success resample makes the
// corresponding TTS +Inf, pushing the resample to the distribution edge.
func ttsRatioStat(durX, durY float64) func(xs, ys []float64) float64 {
	return func(xs, ys []float64) float64 {
		tx := metrics.TTS(durX, metrics.Mean(xs), 99)
		ty := metrics.TTS(durY, metrics.Mean(ys), 99)
		if math.IsInf(ty, 1) {
			if math.IsInf(tx, 1) {
				return 1
			}
			return 0
		}
		return tx / ty
	}
}

// evalFig3Window tests Figure 3's size window for the Lewis–Glover
// simplification: pooled over BPSK/QPSK/16-QAM, preprocessing fixes at
// least one variable on most small instances (≤ 12 variables) and on
// almost no large ones (≥ 40 variables). No anneals are involved — the
// sequential sampler draws fresh instance corpora per round; each
// preprocessed instance counts one read against the budget.
func evalFig3Window(e *Env) ([]Estimate, int, error) {
	r := e.claimRng("fig3-simplification")
	boot := r.SplitString("bootstrap")
	schemes := []modulation.Scheme{modulation.BPSK, modulation.QPSK, modulation.QAM16}
	smallVars := []int{4, 8, 12}
	largeVars := []int{40, 44, 48}
	const perPoint = 2 // instances per (scheme, size) per round

	var smallSucc, smallTrials, largeSucc, largeTrials int
	pool := func(vars []int, round int) (succ, trials int, err error) {
		for _, s := range schemes {
			for _, v := range vars {
				if v%s.BitsPerSymbol() != 0 {
					continue
				}
				seed := e.opts.Config.Seed ^ uint64(v*131+int(s)) ^ uint64(round)<<20
				insts, err := instance.Corpus(instance.Spec{Users: v / s.BitsPerSymbol(), Scheme: s}, seed, perPoint)
				if err != nil {
					return 0, 0, err
				}
				for _, in := range insts {
					if qubo.Preprocess(in.Reduction.Ising.ToQUBO()).Simplified {
						succ++
					}
					trials++
				}
			}
		}
		return succ, trials, nil
	}
	round := func(k int) (int, error) {
		ss, st, err := pool(smallVars, k)
		if err != nil {
			return 0, err
		}
		ls, lt, err := pool(largeVars, k)
		if err != nil {
			return 0, err
		}
		smallSucc, smallTrials = smallSucc+ss, smallTrials+st
		largeSucc, largeTrials = largeSucc+ls, largeTrials+lt
		return st + lt, nil
	}
	judge := func() []Estimate {
		small := metrics.BootstrapCI(metrics.BernoulliVector(smallSucc, smallTrials),
			metrics.Mean, e.opts.Resamples, e.opts.Confidence, boot)
		large := metrics.BootstrapCI(metrics.BernoulliVector(largeSucc, largeTrials),
			metrics.Mean, e.opts.Resamples, e.opts.Confidence, boot)
		return []Estimate{
			gradeAbove("small_simplified_ratio", small, 0.5),
			gradeBelow("large_simplified_ratio", large, 0.3),
		}
	}
	return e.sequential(seqTest{round: round, judge: judge, cap: 16})
}

// evalFleetSpeedup tests the fleet scheduler's scaling claim: the
// reference backlogged workload (concurrent 8-user 16-QAM detection
// streams) is served once by a single device and once by the scaled
// pool, per replicate workload seed; the mean throughput speedup across
// replicates must clear 3×. Replicates are added sequentially until the
// bootstrap CI decides. Committed seed-2020 scaling: 5.95× at 8 devices.
func evalFleetSpeedup(e *Env) ([]Estimate, int, error) {
	const (
		streams   = 6
		perStream = 4
		reads     = 30
	)
	devices := e.opts.FleetDevices
	if e.opts.Inject == "fleet-serial" {
		devices = 1
	}
	r := e.claimRng("fleet-speedup")
	boot := r.SplitString("bootstrap")

	var speedups []float64
	round := func(rep int) (int, error) {
		seed := e.opts.Config.Seed ^ uint64(0xF1EE+rep*1009)
		reqs, err := experiments.FleetWorkload(seed, streams, perStream, r.Split(uint64(rep)))
		if err != nil {
			return 0, err
		}
		serve := func(n int) (float64, error) {
			out, err := fleet.Serve(context.Background(), fleet.Config{
				Devices:          fleet.DefaultDevices(n),
				NumReads:         reads,
				BatchMax:         4,
				StreamQueueBound: 64,
				Seed:             seed,
			}, reqs)
			if err != nil {
				return 0, err
			}
			return out.Report.ThroughputPerSecond, nil
		}
		base, err := serve(1)
		if err != nil {
			return 0, err
		}
		scaled, err := serve(devices)
		if err != nil {
			return 0, err
		}
		if base == 0 {
			return 0, fmt.Errorf("validate: single-device fleet served nothing")
		}
		speedups = append(speedups, scaled/base)
		return len(reqs) * reads * 2, nil
	}
	judge := func() []Estimate {
		ci := metrics.BootstrapMeanCI(speedups, e.opts.Resamples, e.opts.Confidence, boot)
		return []Estimate{gradeAbove(fmt.Sprintf("fleet_speedup_%dx1", devices), ci, 3.0)}
	}
	return e.sequential(seqTest{round: round, judge: judge, warmup: replicateWarmup, cap: replicateCap})
}

// evalHybridRouting tests the heterogeneous-fleet claim: on the mixed
// easy/hard deadline workload at 2× load, the hybrid pool (2 QPU + 1 PT
// + 1 SA with hardness/deadline routing) must beat BOTH same-size
// homogeneous baselines on deadline-hit rate. The separation is
// structural: the easy streams' deadlines sit under the QPU programming
// floor (all-QPU forfeits them), and the hard frames' Monte-Carlo cost
// drowns a classical-only pool under backlog. Committed seed-2020
// per-replicate diffs: ≈ +0.33 over all-QPU, ≈ +0.15 over
// all-classical; gates of 0.2 and 0.06 leave margin on both sides, and
// the "hybrid-routing-off" injection (every frame forced classical)
// lands at ≈ −0.06 / −0.23 — decisively across both gates.
func evalHybridRouting(e *Env) ([]Estimate, int, error) {
	r := e.claimRng("hybrid-routing")
	boot := r.SplitString("bootstrap")
	var router fleet.RouterConfig
	if e.opts.Inject == "hybrid-routing-off" {
		router.ForceClass = fleet.ClassClassical
	}

	var overQPU, overClassical []float64
	round := func(rep int) (int, error) {
		seed := e.opts.Config.Seed ^ uint64(0x4B1D+rep*6151)
		reqs, err := experiments.HybridWorkload(e.opts.Config, seed, 2)
		if err != nil {
			return 0, err
		}
		hit := make(map[string]float64, 3)
		for _, pool := range experiments.HybridPools() {
			rc := fleet.RouterConfig{}
			if pool.Name == "hybrid" {
				rc = router
			}
			rep2, err := experiments.ServeHybridPool(e.opts.Config, pool.Devices, pool.Route, rc, seed, reqs)
			if err != nil {
				return 0, err
			}
			hit[pool.Name] = 1 - rep2.DeadlineMissRate
		}
		overQPU = append(overQPU, hit["hybrid"]-hit["all-qpu"])
		overClassical = append(overClassical, hit["hybrid"]-hit["all-classical"])
		return 3 * len(reqs) * experiments.HybridReads, nil
	}
	judge := func() []Estimate {
		qpuCI := metrics.BootstrapMeanCI(overQPU, e.opts.Resamples, e.opts.Confidence, boot)
		classicalCI := metrics.BootstrapMeanCI(overClassical, e.opts.Resamples, e.opts.Confidence, boot)
		return []Estimate{
			gradeAbove("hybrid_hit_minus_all_qpu", qpuCI, 0.2),
			gradeAbove("hybrid_hit_minus_all_classical", classicalCI, 0.06),
		}
	}
	return e.sequential(seqTest{round: round, judge: judge, warmup: replicateWarmup, cap: replicateCap})
}

// evalClassicalBERParity tests the surrogate-quality half of the
// heterogeneous-fleet story: on the easy end of the workload (3-user
// QPSK uplink at 12 dB), a default simulated-annealing backend seeded
// with the same greedy candidate decodes at the same bit error rate as
// the QPU-sim hybrid — easy frames lose nothing by routing classical.
// Both arms sit at or near BER 0 on this corpus, so the gate of 2%
// excess BER is many bit-errors wide.
func evalClassicalBERParity(e *Env) ([]Estimate, int, error) {
	const (
		users     = 3
		snrDB     = 12.0
		frames    = 12
		readsEach = 10
	)
	r := e.claimRng("classical-ber-parity")
	boot := r.SplitString("bootstrap")
	scheme := modulation.QPSK
	bitsPerFrame := users * scheme.BitsPerSymbol()

	var diffs []float64
	round := func(rep int) (int, error) {
		seed := e.opts.Config.Seed ^ uint64(0xBE12+rep*7919)
		n0 := channel.NoiseVarianceForSNR(snrDB, users)
		insts, err := instance.Corpus(instance.Spec{
			Users: users, Scheme: scheme, Channel: channel.Rayleigh,
			NoiseVariance: n0,
		}, seed, frames)
		if err != nil {
			return 0, err
		}
		wr := r.SplitString("replicate").Split(uint64(rep))
		qErr, cErr := 0, 0
		for fi, in := range insts {
			fr := wr.Split(uint64(fi))
			out, err := (&core.Hybrid{NumReads: readsEach}).Solve(in.Reduction, fr.SplitString("qpu"))
			if err != nil {
				return 0, err
			}
			qErr += mimo.BitErrors(scheme, out.Symbols, in.Transmitted)
			cr := fr.SplitString("sa")
			var best qubo.Sample
			for k := 0; k < readsEach; k++ {
				s := qubo.SimulatedAnnealingFrom(in.Reduction.Ising, cr.Split(uint64(k)), out.InitialState, qubo.SAOptions{})
				if k == 0 || s.Energy < best.Energy {
					best = s
				}
			}
			cErr += mimo.BitErrors(scheme, in.Reduction.DecodeSpins(best.Spins), in.Transmitted)
		}
		bits := float64(frames * bitsPerFrame)
		diffs = append(diffs, (float64(cErr)-float64(qErr))/bits)
		return 2 * frames * readsEach, nil
	}
	judge := func() []Estimate {
		ci := metrics.BootstrapMeanCI(diffs, e.opts.Resamples, e.opts.Confidence, boot)
		return []Estimate{gradeBelow("classical_minus_qpu_ber", ci, 0.02)}
	}
	return e.sequential(seqTest{round: round, judge: judge, warmup: replicateWarmup, cap: replicateCap})
}

// evalCRANShardScaling tests the serving tier's scaling claim: a bursty
// diurnal city workload offered at roughly twice the 4-shard tier's
// drain rate is served once by a single shard and once by four, per
// replicate workload seed; the mean throughput speedup across replicates
// must clear 2.5×. Shedding is disabled on both sides so throughput is
// makespan-bound and the ratio isolates the shard seam. Committed
// seed-2020 values: ≈ 2.9× here (200 single-UE cells), 3.76× in the
// full-scale experiment harness — the gate of 2.5 leaves margin while a
// tier that stopped sharding (speedup 1) crosses immediately.
func evalCRANShardScaling(e *Env) ([]Estimate, int, error) {
	const (
		shards = 4
		reads  = 4
	)
	scaled := shards
	if e.opts.Inject == "cran-single-shard" {
		scaled = 1
	}
	r := e.claimRng("cran-shard-scaling")
	boot := r.SplitString("bootstrap")

	var speedups []float64
	round := func(rep int) (int, error) {
		seed := e.opts.Config.Seed ^ uint64(0xC7A9+rep*7919)
		reqs, err := cran.Workload{
			// City-scale cell count: consistent-hash balance tightens with
			// cells, and the speedup ceiling is set by the hottest shard's
			// load share.
			Cells: 200, UEsPerCell: 1,
			DurationMicros:  30_000,
			FramesPerSecond: 53, // ≈ 2× the 4-shard tier's drain rate across 200 streams
			Diurnal:         cran.DefaultDiurnal(),
			BurstProb:       0.25, BurstFactor: 2.5,
			NumReads: reads,
			Seed:     seed,
		}.Generate()
		if err != nil {
			return 0, err
		}
		serve := func(n int) (float64, error) {
			out, err := cran.Serve(context.Background(), cran.Config{
				Shards: experiments.CRANPools(n),
				Fleet:  fleet.Config{BatchMax: 4, StreamQueueBound: 64},
				Seed:   seed,
			}, reqs)
			if err != nil {
				return 0, err
			}
			return out.Report.ThroughputPerSecond, nil
		}
		base, err := serve(1)
		if err != nil {
			return 0, err
		}
		sc, err := serve(scaled)
		if err != nil {
			return 0, err
		}
		if base == 0 {
			return 0, fmt.Errorf("validate: single-shard tier served nothing")
		}
		speedups = append(speedups, sc/base)
		return len(reqs) * reads * 2, nil
	}
	judge := func() []Estimate {
		ci := metrics.BootstrapMeanCI(speedups, e.opts.Resamples, e.opts.Confidence, boot)
		return []Estimate{gradeAbove(fmt.Sprintf("cran_shard_speedup_%dx1", shards), ci, 2.5)}
	}
	return e.sequential(seqTest{round: round, judge: judge, warmup: replicateWarmup, cap: replicateCap})
}

// evalEnsembleRA tests the flexible-parallelism claim (X-ResQ's shape on
// the Figure 8 instance): fanning one detection into K=4 candidates ×
// the 3-point s_p grid must beat the single greedy/0.45 arm on success
// probability. The comparison is PAIRED inside one ensemble solve — the
// single-RA baseline is core.Reduce over arm 0 and its candidate alone —
// so each trial's difference is Bernoulli in
// {0, 1} and the "ensemble-collapsed" injection (K→1, trivial grid)
// makes every difference identically zero: the gate crosses immediately
// instead of stalling. Committed seed-2020 mean difference ≈ 0.6 at two
// reads per arm; the gate of 0.12 leaves margin on both sides.
func evalEnsembleRA(e *Env) ([]Estimate, int, error) {
	in, err := e.fig8Instance()
	if err != nil {
		return nil, 0, err
	}
	k, grid := 4, core.DefaultSpGrid()
	if e.opts.Inject == "ensemble-collapsed" {
		k, grid = 1, []float64{0.45}
	}
	// Two reads per arm keeps the single arm off its saturation plateau:
	// the claim separates arm counts, not read counts.
	const readsPerArm = 2
	det := &core.Ensemble{K: k, SpGrid: grid, NumReads: readsPerArm}
	arms := k * len(grid)
	r := e.claimRng("ensemble-ra")
	boot := r.SplitString("bootstrap")

	// One batch is a dozen paired solves; readsPerArm reads per arm.
	batchTrials := (e.opts.BatchReads + arms*readsPerArm - 1) / (arms * readsPerArm)
	if batchTrials < 1 {
		batchTrials = 1
	}
	var diffs []float64
	round := func(int) (int, error) {
		for t := 0; t < batchTrials; t++ {
			out, err := det.Solve(in.Reduction, r.SplitString("trial").Split(uint64(len(diffs))))
			if err != nil {
				return 0, err
			}
			arm0 := out.Arms[0]
			alone := core.Reduce(in.Reduction.Ising, [][]int8{arm0.InitialState},
				[]core.Arm{{Best: arm0.Best, Source: core.AnswerQuantum, Fault: arm0.Fault}})
			single := alone.Best.Energy <= in.GroundEnergy+groundTol
			ens := out.Best.Energy <= in.GroundEnergy+groundTol
			d := 0.0
			if ens && !single {
				d = 1
			}
			diffs = append(diffs, d)
		}
		return arms * readsPerArm * batchTrials, nil
	}
	judge := func() []Estimate {
		ci := metrics.BootstrapMeanCI(diffs, e.opts.Resamples, e.opts.Confidence, boot)
		return []Estimate{gradeAbove("ensemble_minus_single_success", ci, 0.12)}
	}
	return e.sequential(seqTest{round: round, judge: judge})
}
