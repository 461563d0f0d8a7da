package annealer

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/chimera"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// The hot-path benchmarks run the paper's reference workload: the 8-user
// 16-QAM detection instance (32 logical spins), clique-embedded onto
// Chimera and normalized — the physical problem a chain lease (QPU.Chains,
// the embedding ablation) sweeps; BenchmarkLeaseServe16QAM times the
// logical problem the serve runs. Set BENCH_JSON_DIR to record
// machine-readable BENCH_*.json results; each record carries the pre-CSR
// baseline measured on the same workload so the speedup is tracked
// across PRs.

// baselineNsPerSweep holds the ns/sweep of the adjacency-list engines
// before the CSR/sweep-table/pooling restructuring (same instance, same
// schedule, same host class), recorded by the perf PR that introduced
// these benchmarks.
var baselineNsPerSweep = map[string]float64{
	"svmc": 47840,
	"pimc": 258372,
}

func embeddedBenchIsing(b *testing.B) *qubo.Ising {
	b.Helper()
	in, err := instance.Synthesize(instance.Spec{Users: 8, Scheme: modulation.QAM16, Seed: 0xBE9C})
	if err != nil {
		b.Fatal(err)
	}
	logical := in.Reduction.Ising
	g := chimera.NewGraph(chimera.MinGridFor(logical.N))
	emb, err := chimera.EmbedClique(g, logical.N)
	if err != nil {
		b.Fatal(err)
	}
	phys, err := emb.EmbedIsing(logical, chimera.RecommendedChainStrength(logical))
	if err != nil {
		b.Fatal(err)
	}
	norm, _ := phys.Normalized()
	return norm
}

// benchSweepConfig is the Config payload of a sweep benchmark's
// BENCH_*.json record. NsPerSweep is per read-sweep: one full lockstep
// group of ReadsPerGroup reads runs per iteration.
type benchSweepConfig struct {
	Engine             string  `json:"engine"`
	Spins              int     `json:"spins"`
	SweepsPerRead      int     `json:"sweeps_per_read"`
	ReadsPerGroup      int     `json:"reads_per_group"`
	NsPerSweep         float64 `json:"ns_per_sweep"`
	BaselineNsPerSweep float64 `json:"baseline_ns_per_sweep"`
	Speedup            float64 `json:"speedup"`
}

// benchGroup times eng's production kernel on one group of `reads` of
// ln's reads per iteration, annealed along sc at rate sweeps per μs. It
// reports ns per read-sweep and returns that figure with the sweep count
// per read. Each read carries the dense row table a prepared problem
// would.
func benchGroup(b *testing.B, eng Engine, sc *Schedule, rate float64, ln lanes, reads int) (nsPerSweep float64, sweeps int) {
	b.Helper()
	sweeps, err := sweepCount(sc, rate)
	if err != nil {
		b.Fatal(err)
	}
	kernel, err := eng.Prepare(sc, DWave2000QProfile(), rate)
	if err != nil {
		b.Fatal(err)
	}
	rngs := make([]rng.Source, reads)
	group := make([]BatchRead, reads)
	root := rng.New(1)
	for j := range group {
		pr, init := ln.at(j)
		root.SplitInto(&rngs[j], uint64(j))
		group[j] = BatchRead{Prog: pr, Init: init, Out: make([]int8, pr.N), Rng: &rngs[j]}
		if svmcUsesRows(eng) {
			group[j].rows = ln.rowsAt(j) // as PrepareProblem builds them
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(group)
	}
	nsPerSweep = float64(b.Elapsed().Nanoseconds()) / float64(b.N*reads*sweeps)
	b.ReportMetric(nsPerSweep, "ns/read-sweep")
	return nsPerSweep, sweeps
}

func benchmarkSweep(b *testing.B, eng Engine) {
	pr := qubo.NewCSR(embeddedBenchIsing(b))
	fa, _ := Forward(1, 0.41, 1)
	reads := groupWidth(eng)
	nsPerSweep, sweeps := benchGroup(b, eng, fa, 100, oneProblem(pr, nil), reads)
	writeSweepRecord(b, "Annealer"+eng.Name()+"Sweep", eng.Name(), pr.N, reads, sweeps, nsPerSweep, baselineNsPerSweep[eng.Name()])
}

// writeSweepRecord writes a sweep benchmark's BENCH_*.json record when
// BENCH_JSON_DIR is set; base is the recorded baseline ns/read-sweep, or
// 0 when the benchmark has none.
func writeSweepRecord(b *testing.B, name, engine string, spins, reads, sweeps int, nsPerSweep, base float64) {
	b.Helper()
	if dir := os.Getenv(telemetry.BenchJSONDirEnv); dir != "" {
		cfg := benchSweepConfig{
			Engine: engine, Spins: spins, SweepsPerRead: sweeps, ReadsPerGroup: reads,
			NsPerSweep: nsPerSweep, BaselineNsPerSweep: base,
		}
		if base > 0 && nsPerSweep > 0 {
			cfg.Speedup = base / nsPerSweep
		}
		rec := telemetry.BenchRecord{
			Name:       name,
			NsPerOp:    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			Iterations: b.N,
			Config:     cfg,
			Series:     fmt.Sprintf("engine=%s spins=%d reads/group=%d ns/read-sweep=%.0f", engine, spins, reads, nsPerSweep),
		}
		if base > 0 {
			rec.Series += fmt.Sprintf(" baseline=%.0f speedup=%.2fx", base, cfg.Speedup)
		}
		if err := telemetry.WriteBenchJSON(dir, rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVMCSweep(b *testing.B) { benchmarkSweep(b, SVMC{}) }
func BenchmarkPIMCSweep(b *testing.B) { benchmarkSweep(b, PIMC{Slices: 16}) }

// baselineNsPerReverseSweep is BenchmarkSVMCSweepReverse's ns/read-sweep
// before the kernel ran whole sweeps over sixteen-read groups: an 8-read
// group with one kernel call per proposal step, median of five runs
// alternating with the sixteen-read kernel on a 2-vCPU Xeon (KVM),
// Go 1.24.
const baselineNsPerReverseSweep = 12405

// BenchmarkSVMCSweepReverse times SVMC on the uplink-16qam group shapes:
// two 8-user 16-QAM frames sharing one group, reverse-annealed at s_p
// 0.45 with a 1 μs pause at 30 sweeps/μs from their greedy candidates
// (uplinkLanes). "embedded" is the physical problem a chain lease
// sweeps; "logical" is the 32-spin problem the serve anneals, with its
// dense row tables; "logical-tf" runs the logical group with TF moves,
// which take the Go proposal step on every host. reads=16 is SVMC's full
// group and each case's recorded one; reads=12 is uplink's common group
// (a batch averages 1.48 frames of 12 reads): one full chunk plus a
// chunk with only its first half live.
func BenchmarkSVMCSweepReverse(b *testing.B) {
	ra, err := Reverse(0.45, 1)
	if err != nil {
		b.Fatal(err)
	}
	embedded, logical := uplinkLanes(b, true), uplinkLanes(b, false)
	for _, tc := range []struct {
		name, record string
		eng          SVMC
		ln           lanes
		base         float64
	}{
		{"embedded", "AnnealersvmcSweepReverse", SVMC{}, embedded, baselineNsPerReverseSweep},
		{"logical", "AnnealersvmcSweepReverseLogical", SVMC{}, logical, 0},
		{"logical-tf", "Annealersvmc-tfSweepReverseLogical", SVMC{TFMoves: true}, logical, 0},
	} {
		for _, reads := range []int{svmcGroupWidth, 12} {
			b.Run(fmt.Sprintf("%s/reads=%d", tc.name, reads), func(b *testing.B) {
				nsPerSweep, sweeps := benchGroup(b, tc.eng, ra, 30, tc.ln, reads)
				if reads == svmcGroupWidth {
					writeSweepRecord(b, tc.record, tc.eng.Name(), tc.ln.prs[0].N, reads, sweeps, nsPerSweep, tc.base)
				}
			})
		}
	}
}

// BenchmarkRun measures a full 32-read batch through the public entry
// point — normalization, CSR compilation, engine prepare, reads, quench,
// sampling. Run with -benchmem: the per-read allocation count is the
// zero-alloc acceptance gate (scratch is pooled; the only growth is the
// returned samples).
func BenchmarkRun(b *testing.B) {
	is := embeddedBenchIsing(b)
	fa, _ := Forward(1, 0.41, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(is, Params{Schedule: fa, NumReads: 32, SweepsPerMicrosecond: 30}, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
	if dir := os.Getenv(telemetry.BenchJSONDirEnv); dir != "" {
		rec := telemetry.BenchRecord{
			Name:       "AnnealerRun32Reads",
			NsPerOp:    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			Iterations: b.N,
			Config: map[string]any{
				"engine": "svmc", "reads": 32, "spins": is.N,
				"baseline_bytes_per_op": 605264, "baseline_allocs_per_op": 556,
			},
			Series: fmt.Sprintf("reads=32 spins=%d ns/op=%.0f", is.N,
				float64(b.Elapsed().Nanoseconds())/float64(b.N)),
		}
		if err := telemetry.WriteBenchJSON(dir, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeasePreparedHit measures what a run pays against a Prepared
// it shares with others (an ensemble arm after the first): RunPrepared
// on a chain lease against an already-compiled Prepared, skipping
// clique embedding, chain strength, physical layout and normalization.
// Compare against BenchmarkLeaseRunUncached for the compile sharing
// skips.
func BenchmarkLeasePreparedHit(b *testing.B) {
	in, err := instance.Synthesize(instance.Spec{Users: 8, Scheme: modulation.QAM16, Seed: 0xBE9C})
	if err != nil {
		b.Fatal(err)
	}
	is := in.Reduction.Ising
	fa, _ := Forward(1, 0.41, 1)
	p := Params{Schedule: fa, NumReads: 32, SweepsPerMicrosecond: 30}
	l, err := chainQPU().Lease(p)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := l.PrepareProblem(is)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RunPrepared(prep, nil, 32, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
	if dir := os.Getenv(telemetry.BenchJSONDirEnv); dir != "" {
		rec := telemetry.BenchRecord{
			Name:       "AnnealerLeasePreparedHit32Reads",
			NsPerOp:    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			Iterations: b.N,
			Config: map[string]any{
				"engine": "svmc", "reads": 32, "spins": is.N, "path": "embedded-cache-hit",
			},
			Series: fmt.Sprintf("reads=32 spins=%d ns/op=%.0f", is.N,
				float64(b.Elapsed().Nanoseconds())/float64(b.N)),
		}
		if err := telemetry.WriteBenchJSON(dir, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeaseRunUncached is BenchmarkLeasePreparedHit's control: the
// same embedded batch through Lease.Run, recompiling the problem every
// call the way a run that shares no Prepared does.
func BenchmarkLeaseRunUncached(b *testing.B) {
	in, err := instance.Synthesize(instance.Spec{Users: 8, Scheme: modulation.QAM16, Seed: 0xBE9C})
	if err != nil {
		b.Fatal(err)
	}
	is := in.Reduction.Ising
	fa, _ := Forward(1, 0.41, 1)
	l, err := chainQPU().Lease(Params{Schedule: fa, NumReads: 32, SweepsPerMicrosecond: 30})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Run(is, nil, 32, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// baselineNsPerServeFrame is BenchmarkLeaseServe16QAM's ns/frame when a
// QPU lease still ran every frame on the clique-embedded problem: the
// median of three runs alternating with the logical lease on a 2-vCPU
// Xeon (KVM), Go 1.24, in the hour the committed record was taken (the
// host's speed drifts by up to 50% between hours). None of that lease's
// frames beat the candidate.
const baselineNsPerServeFrame = 10999670

// BenchmarkLeaseServe16QAM times one frame of the uplink-16qam serve as a
// fleet device runs it: an 8-user 16-QAM frame (32 logical spins) on a
// fresh channel, reverse-annealed for 12 reads at the fleet's default
// s_p 0.45 with a 1 μs pause from its greedy candidate, through Lease.Run
// on a default QPU lease, so the anneal runs the logical problem and each
// frame pays its own compile, as every frame of the workload does: each
// has a fresh channel, so no frame shares a Prepared. The nominal
// sub-benchmark is fleet.DefaultDevices[0]: the nominal 2000Q, the
// calibrated profile, 30 sweeps/μs and no ICE. The ICE one is
// fleet.DefaultDevices[1], which programs every read with
// DWave2000QICE noise: the stock profile at 33 sweeps/μs. The frames
// cycle through 32 channel draws. The record also carries the share of
// frames whose best read strictly beats the candidate: the answer the
// serve's quantum arm adds.
func BenchmarkLeaseServe16QAM(b *testing.B) {
	b.Run("nominal", func(b *testing.B) {
		benchServe16QAM(b, "AnnealerLeaseServe16QAM", "fleet.DefaultDevices[0]", CalibratedProfile(), 30, ICE{})
	})
	b.Run("ICE", func(b *testing.B) {
		benchServe16QAM(b, "AnnealerLeaseServe16QAMICE", "fleet.DefaultDevices[1]", DWave2000QProfile(), 33, DWave2000QICE())
	})
}

// benchServe16QAM is one BenchmarkLeaseServe16QAM device: the frames on
// a QPU lease with profile prof, rate sweeps per μs and ICE noise ice,
// recorded as name. Only the nominal device carries the embedded-lease
// baseline.
func benchServe16QAM(b *testing.B, name, device string, prof Profile, rate float64, ice ICE) {
	const frames, reads = 32, 12
	ra, err := Reverse(0.45, 1)
	if err != nil {
		b.Fatal(err)
	}
	l, err := NewQPU2000Q().Lease(Params{Schedule: ra, NumReads: reads, Profile: &prof, SweepsPerMicrosecond: rate, ICE: ice})
	if err != nil {
		b.Fatal(err)
	}
	problems := make([]*qubo.Ising, frames)
	cands := make([][]int8, frames)
	for i := range problems {
		in, err := instance.Synthesize(instance.Spec{Users: 8, Scheme: modulation.QAM16, Seed: 0x5E7E + uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		problems[i] = in.Reduction.Ising
		cands[i] = qubo.GreedySearchIsing(problems[i], qubo.OrderDescending)
	}
	beats := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := i % frames
		res, err := l.Run(problems[f], cands[f], reads, rng.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Best.Energy < problems[f].Energy(cands[f])-1e-9 {
			beats++
		}
	}
	b.StopTimer()
	share := float64(beats) / float64(b.N)
	b.ReportMetric(share, "beats-candidate/frame")
	if dir := os.Getenv(telemetry.BenchJSONDirEnv); dir != "" {
		nsPerFrame := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		cfg := map[string]any{
			"engine": "svmc", "reads": reads, "spins": problems[0].N, "path": "qpu-logical",
			"schedule": "reverse s_p=0.45 pause=1us", "candidate": "greedy",
			"device": device, "beats_candidate_share": share, "sweeps_per_us": rate,
			"ice_sigma_h": ice.SigmaH, "ice_sigma_j": ice.SigmaJ,
			"host": fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		}
		series := fmt.Sprintf("reads=%d spins=%d ns/frame=%.0f beats-candidate=%.3f", reads, problems[0].N, nsPerFrame, share)
		if !ice.enabled() {
			cfg["baseline_ns_per_frame"] = baselineNsPerServeFrame
			cfg["speedup"] = baselineNsPerServeFrame / nsPerFrame
			series = fmt.Sprintf("reads=%d spins=%d ns/frame=%.0f baseline=%d speedup=%.2fx beats-candidate=%.3f",
				reads, problems[0].N, nsPerFrame, baselineNsPerServeFrame, baselineNsPerServeFrame/nsPerFrame, share)
		}
		rec := telemetry.BenchRecord{Name: name, NsPerOp: nsPerFrame, Iterations: b.N, Config: cfg, Series: series}
		if err := telemetry.WriteBenchJSON(dir, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunICEFaults exercises the noisy programming path (per-read
// coefficient clones) to pin that pooled clones keep it allocation-light.
func BenchmarkRunICEFaults(b *testing.B) {
	is := embeddedBenchIsing(b)
	fa, _ := Forward(1, 0.41, 1)
	p := Params{
		Schedule: fa, NumReads: 32, SweepsPerMicrosecond: 30,
		ICE:    DWave2000QICE(),
		Faults: FaultModel{CalibrationDriftRate: 0.2, ReadTimeoutRate: 0.05},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(is, p, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMulti measures one fleet batch of the ensemble-coded
// batch shape: 4 ensemble arms × 4 reads of reverse anneal (s_p = 0.45,
// 1 μs pause, 30 sweeps/μs) on the serve's default QPU lease, which
// anneals the logical 16-spin 4-user 16-QAM detection problem. Each arm
// starts from its own candidate and all four carry the same problem, so
// the one multi-run call compiles it once and its 16 reads fill one full
// lockstep group where per-arm calls would run four quarter-full ones.
func BenchmarkRunMulti(b *testing.B) {
	in, err := instance.Synthesize(instance.Spec{Users: 4, Scheme: modulation.QAM16, Seed: 0xE45E})
	if err != nil {
		b.Fatal(err)
	}
	is := in.Reduction.Ising
	ra, err := Reverse(0.45, 1)
	if err != nil {
		b.Fatal(err)
	}
	l, err := NewQPU2000Q().Lease(Params{Schedule: ra, NumReads: 4, SweepsPerMicrosecond: 30})
	if err != nil {
		b.Fatal(err)
	}
	const arms = 4
	inits := make([][]int8, arms)
	cand := rng.New(0xA125)
	for a := range inits {
		inits[a] = make([]int8, is.N)
		for i := range inits[a] {
			inits[a][i] = cand.Spin()
		}
	}
	runs := make([]MultiRun, arms)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a := range runs {
			runs[a] = MultiRun{Problem: is, InitialState: inits[a], NumReads: 4, Rng: rng.New(uint64(i*arms + a + 1))}
		}
		if _, errs, err := l.RunMulti(runs); err != nil || errs[0] != nil {
			b.Fatal(err, errs[0])
		}
	}
	if dir := os.Getenv(telemetry.BenchJSONDirEnv); dir != "" {
		rec := telemetry.BenchRecord{
			Name:       "AnnealerRunMulti4x4",
			NsPerOp:    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			Iterations: b.N,
			Config: map[string]any{
				"engine": "svmc", "arms": arms, "reads_per_arm": 4, "spins": is.N, "path": "qpu-logical-multi-run",
			},
			Series: fmt.Sprintf("arms=%d reads/arm=4 spins=%d ns/op=%.0f", arms, is.N,
				float64(b.Elapsed().Nanoseconds())/float64(b.N)),
		}
		if err := telemetry.WriteBenchJSON(dir, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// baselineNsPerSARestart is the ns per 1000-sweep restart of the
// one-read path, qubo.SimulatedAnnealing, over the same 60 reductions —
// the cost every top-K restart paid before the lockstep SA group. It is
// the median of five 480-restart runs on a 2-vCPU Xeon (Sapphire
// Rapids, KVM), Go 1.24.
const baselineNsPerSARestart = 698675

// BenchmarkSAGroup times the lockstep SA group on the 16-spin 4-user
// 16-QAM reductions top-K candidate generation anneals: one full
// 8-lane group of default-option restarts per iteration, cycling over
// 60 reductions. It reports ns per restart, with the one-read cost as
// the recorded baseline.
func BenchmarkSAGroup(b *testing.B) {
	reds := saReductions(b, 60)
	var srcs [lockstepWidth]rng.Source
	var rs [lockstepWidth]*rng.Source
	var out [lockstepWidth]qubo.Sample
	root := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rs {
			root.SplitInto(&srcs[j], uint64(i*lockstepWidth+j))
			rs[j] = &srcs[j]
		}
		SimulatedAnnealingGroup(reds[i%len(reds)], rs[:], nil, qubo.SAOptions{}, out[:])
	}
	nsPerRestart := float64(b.Elapsed().Nanoseconds()) / float64(b.N*lockstepWidth)
	b.ReportMetric(nsPerRestart, "ns/restart")
	if dir := os.Getenv(telemetry.BenchJSONDirEnv); dir != "" {
		rec := telemetry.BenchRecord{
			Name:       "AnnealerSAGroup",
			NsPerOp:    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			Iterations: b.N,
			Config: map[string]any{
				"spins": reds[0].N, "sweeps_per_restart": 1000, "lanes": lockstepWidth,
				"ns_per_restart": nsPerRestart, "baseline_ns_per_restart": baselineNsPerSARestart,
				"speedup": baselineNsPerSARestart / nsPerRestart,
			},
			Series: fmt.Sprintf("spins=%d lanes=%d ns/restart=%.0f baseline=%.0f speedup=%.2fx",
				reds[0].N, lockstepWidth, nsPerRestart, float64(baselineNsPerSARestart), baselineNsPerSARestart/nsPerRestart),
		}
		if err := telemetry.WriteBenchJSON(dir, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// servingPT is the fleet's PT backend configuration (fleet.serving.pt):
// four rungs, 200 sweeps, a swap pass every fifth sweep.
var servingPT = qubo.PTOptions{Replicas: 4, Sweeps: 200, BetaMin: 0.1, BetaMax: 10, SwapInterval: 5}

// baselineNsPerPTRead is the ns per serving-option read of the one-read
// path, qubo.ParallelTempering, over the same problems as
// BenchmarkPTGroup — the cost every PT read paid before the lockstep
// group — keyed by spin count. Each is the median of five 2,560-read
// runs on a 2-vCPU Xeon (Sapphire Rapids, KVM), Go 1.24.
var baselineNsPerPTRead = map[int]float64{6: 151877, 32: 1058217}

// BenchmarkPTGroup times the lockstep PT group with the serving options
// on the hybrid pool's two frame shapes: 3-user QPSK (6 spins) and
// 8-user 16-QAM (32 spins), 16 problems each. Every iteration runs one
// full 8-lane group of each shape, timed apart, and the benchmark
// reports ns per read of each against the recorded one-read baseline.
func BenchmarkPTGroup(b *testing.B) {
	shapes := []struct {
		users  int
		scheme modulation.Scheme
	}{{3, modulation.QPSK}, {8, modulation.QAM16}}
	problems := make([][]*qubo.Ising, len(shapes))
	for si, sh := range shapes {
		for i := 0; i < 16; i++ {
			in, err := instance.Synthesize(instance.Spec{Users: sh.users, Scheme: sh.scheme, Seed: uint64(0x97 + 31*i)})
			if err != nil {
				b.Fatal(err)
			}
			problems[si] = append(problems[si], in.Reduction.Ising)
		}
	}
	var srcs [lockstepWidth]rng.Source
	var rs [lockstepWidth]*rng.Source
	var out [lockstepWidth]qubo.Sample
	elapsed := make([]time.Duration, len(shapes))
	root := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for si, ps := range problems {
			for j := range rs {
				root.SplitInto(&srcs[j], uint64(i*lockstepWidth+j))
				rs[j] = &srcs[j]
			}
			t0 := time.Now()
			ParallelTemperingGroup(ps[i%len(ps)], rs[:], servingPT, out[:])
			elapsed[si] += time.Since(t0)
		}
	}
	config := map[string]any{
		"lanes": lockstepWidth, "replicas": servingPT.Replicas, "sweeps": servingPT.Sweeps,
		"swap_interval": servingPT.SwapInterval,
	}
	series := fmt.Sprintf("lanes=%d", lockstepWidth)
	for si, ps := range problems {
		n := ps[0].N
		nsPerRead := float64(elapsed[si].Nanoseconds()) / float64(b.N*lockstepWidth)
		base := baselineNsPerPTRead[n]
		b.ReportMetric(nsPerRead, fmt.Sprintf("ns/read-%dspin", n))
		config[fmt.Sprintf("ns_per_read_%dspin", n)] = nsPerRead
		config[fmt.Sprintf("baseline_ns_per_read_%dspin", n)] = base
		config[fmt.Sprintf("speedup_%dspin", n)] = base / nsPerRead
		series += fmt.Sprintf(" spins=%d ns/read=%.0f baseline=%.0f speedup=%.2fx", n, nsPerRead, base, base/nsPerRead)
	}
	if dir := os.Getenv(telemetry.BenchJSONDirEnv); dir != "" {
		rec := telemetry.BenchRecord{
			Name:       "AnnealerPTGroup",
			NsPerOp:    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			Iterations: b.N,
			Config:     config,
			Series:     series,
		}
		if err := telemetry.WriteBenchJSON(dir, rec); err != nil {
			b.Fatal(err)
		}
	}
}
