package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/annealer"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mimo"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// Layers the benchmark times from outside. Each pass-level name wraps
// the benchmark's own calls into one module's public API; the replay
// names attribute the work inside a serve.
const (
	layerReduce       = "mimo.reduce"     // mimo.Reduce
	layerGreedy       = "qubo.candidate"  // qubo.GreedySearchIsing
	layerTopK         = "core.topk"       // core.TopKCandidates
	layerHarness      = "bench.harness"   // request building, outcome bookkeeping, BER
	layerServe        = "serve"           // fleet.Serve, fleet.ServeEnsemble, cran.Serve
	layerDecode       = "mimo.decode"     // Reduction.DecodeSpins and the coded-bit LLR map
	layerViterbi      = "coding.viterbi"  // ConvCode.DecodeSoft
	layerSLOFinish    = "slo.finish"      // Monitor.Finish
	layerSLODashboard = "slo.dashboard"   // Snapshot.WriteDashboard
	layerJSONL        = "telemetry.jsonl" // Tracer.WriteJSONL

	layerCompile   = "annealer.compile" // Lease.PrepareProblem, replayed
	layerKernel    = "annealer.kernel"  // Lease.RunPrepared, replayed
	layerClassical = "qubo.classical"   // qubo.ParallelTempering / SimulatedAnnealingFrom, replayed
	layerFuse      = "mimo.fuse"        // mimo.FuseLLRs, replayed
	layerBareServe = "serve.bare"       // the same serve with telemetry detached
)

// ledger accumulates host cost per layer. A nil ledger is an untraced
// pass: time runs the call bare.
type ledger struct {
	costs map[string]*hostCost
}

func newLedger() *ledger { return &ledger{costs: map[string]*hostCost{}} }

// time runs f and charges its host cost to layer. Spans never nest.
func (lg *ledger) time(layer string, f func() error) error {
	if lg == nil {
		return f()
	}
	start := readHost()
	err := f()
	c := lg.costs[layer]
	if c == nil {
		c = &hostCost{}
		lg.costs[layer] = c
	}
	c.add(since(start))
	return err
}

// cpuUS is a layer's CPU time in μs (0 for a layer never entered).
func (lg *ledger) cpuUS(layer string) float64 {
	if c := lg.costs[layer]; c != nil {
		return float64(c.CPU) / float64(time.Microsecond)
	}
	return 0
}

func (lg *ledger) totalCPUUS() float64 {
	t := 0.0
	for l := range lg.costs {
		t += lg.cpuUS(l)
	}
	return t
}

// deviceJob is one frame's device work inside a serve, as the plan fixed
// it: enough to rerun it through the same public entry points.
type deviceJob struct {
	device               fleet.Device
	lease                string // (pool, device, schedule) identity
	seed                 uint64 // the serving fleet's seed
	stream, seq, attempt int
	sp, tp               float64
	reads                int
	problem              *qubo.Ising
	init                 []int8
	out                  fleet.Outcome
}

// fuseJob is one ensemble frame's LLR fusion.
type fuseJob struct {
	arms [][]qubo.Sample
	beta float64
	want []float64
}

// fleetJobs lists the device work behind a fleet serve's outcomes.
func fleetJobs(pool int, cfg fleet.Config, reqs []fleet.Request, outs []fleet.Outcome) []deviceJob {
	byKey := make(map[[2]int]*fleet.Request, len(reqs))
	for i := range reqs {
		byKey[[2]int{reqs[i].Stream, reqs[i].Seq}] = &reqs[i]
	}
	var jobs []deviceJob
	for _, o := range outs {
		if o.Shed || o.Device < 0 {
			continue
		}
		r := byKey[[2]int{o.Stream, o.Seq}]
		sp, tp, reads := r.Sp, r.Tp, r.NumReads
		if sp == 0 {
			sp = cfg.Sp
		}
		if tp == 0 {
			tp = cfg.Tp
		}
		if reads == 0 {
			reads = cfg.NumReads
		}
		jobs = append(jobs, deviceJob{
			device: cfg.Devices[o.Device],
			lease:  fmt.Sprintf("%d/%d/%g/%g", pool, o.Device, sp, tp),
			seed:   cfg.Seed, stream: o.Stream, seq: o.Seq, attempt: o.Attempts,
			sp: sp, tp: tp, reads: reads,
			problem: r.Problem, init: r.InitialState, out: o,
		})
	}
	return jobs
}

// Serving defaults of a classical fleet device whose ClassicalParams are
// zero (every classical device the workloads build).
var (
	servingSA = qubo.SAOptions{Sweeps: 300, BetaStart: 0.1, BetaEnd: 10}
	servingPT = qubo.PTOptions{Replicas: 4, Sweeps: 200, BetaMin: 0.1, BetaMax: 10, SwapInterval: 5}
)

// replayStats counts the replayed work and any disagreement with what
// the serve returned.
type replayStats struct {
	compiles       int
	reads          int
	classicalReads int
	mismatches     int
}

// replay reruns the device work of a traced pass through the public
// entry points the fleet executor uses, charging it to the compile,
// kernel, classical, and fuse layers. Each rerun must reproduce the
// served answer bit for bit; a mismatch means the attribution replayed
// different work than the serve did.
func replay(jobs []deviceJob, fuses []fuseJob, lg *ledger) (replayStats, error) {
	var st replayStats
	leases := map[string]*annealer.Lease{}
	type prepKey struct {
		lease string
		hash  uint64
	}
	preps := map[prepKey][]*annealer.Prepared{}
	prepOf := make([]*annealer.Prepared, len(jobs))
	err := lg.time(layerCompile, func() error {
		for i, j := range jobs {
			if j.device.Backend.Classical() {
				continue
			}
			l := leases[j.lease]
			if l == nil {
				var err error
				if l, err = deviceLease(j); err != nil {
					return err
				}
				leases[j.lease] = l
			}
			k := prepKey{j.lease, j.problem.ContentHash()}
			for _, p := range preps[k] {
				if p.Problem().Equal(j.problem) {
					prepOf[i] = p
					break
				}
			}
			if prepOf[i] == nil {
				p, err := l.PrepareProblem(j.problem)
				if err != nil {
					return err
				}
				preps[k] = append(preps[k], p)
				prepOf[i] = p
				st.compiles++
			}
		}
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("replay compile: %w", err)
	}
	err = lg.time(layerKernel, func() error {
		for i, j := range jobs {
			if prepOf[i] == nil {
				continue
			}
			res, err := leases[j.lease].RunPrepared(prepOf[i], j.init, j.reads, frameRNG(j))
			if err != nil {
				return err
			}
			st.reads += j.reads
			if !reproduces(j, res.Best) {
				st.mismatches++
			}
		}
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("replay kernel: %w", err)
	}
	lg.time(layerClassical, func() error {
		for _, j := range jobs {
			if !j.device.Backend.Classical() {
				continue
			}
			r := frameRNG(j)
			var best qubo.Sample
			for k := 0; k < j.reads; k++ {
				var s qubo.Sample
				if j.device.Backend == fleet.BackendSimulatedAnnealing {
					s = qubo.SimulatedAnnealingFrom(j.problem, r.Split(uint64(k)), j.init, servingSA)
				} else {
					s = qubo.ParallelTempering(j.problem, r.Split(uint64(k)), servingPT)
				}
				if k == 0 || s.Energy < best.Energy {
					best = s
				}
			}
			st.classicalReads += j.reads
			if !reproduces(j, best) {
				st.mismatches++
			}
		}
		return nil
	})
	lg.time(layerFuse, func() error {
		for _, f := range fuses {
			llrs, err := mimo.FuseLLRs(f.arms, f.beta, 0)
			if err != nil || !sameBits(llrs, f.want) {
				st.mismatches++
			}
		}
		return nil
	})
	return st, nil
}

// deviceLease builds the lease the fleet executor runs a device and
// schedule on (programming failures are the dispatcher's draw, not the
// lease's).
func deviceLease(j deviceJob) (*annealer.Lease, error) {
	sc, err := annealer.Reverse(j.sp, j.tp)
	if err != nil {
		return nil, err
	}
	p := annealer.Params{
		Schedule:             sc,
		Engine:               j.device.Engine,
		Profile:              j.device.Profile,
		SweepsPerMicrosecond: j.device.SweepsPerMicrosecond,
		ICE:                  j.device.ICE,
		Faults:               j.device.Faults.WithoutProgrammingFailures(),
		Parallelism:          1,
	}
	if j.device.QPU != nil {
		return j.device.QPU.Lease(p)
	}
	return annealer.NewLease(p)
}

// frameRNG is the stream the fleet executor draws a frame's reads from.
func frameRNG(j deviceJob) *rng.Source {
	return rng.New(j.seed).SplitString("fleet/frame").
		Split(uint64(j.stream)<<32 | uint64(j.seq)).Split(uint64(j.attempt))
}

// reproduces reports whether a replayed best sample explains the served
// answer under the fleet's answer rule (the candidate wins only when
// strictly better).
func reproduces(j deviceJob, best qubo.Sample) bool {
	initE := j.problem.Energy(j.init)
	switch j.out.Source {
	case core.AnswerQuantum, core.AnswerClassicalSolver:
		return best.Energy == j.out.Best.Energy && spinsEqual(best.Spins, j.out.Best.Spins)
	case core.AnswerClassicalCandidate:
		return initE < best.Energy
	}
	return false
}

func spinsEqual(a, b []int8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// schedStats are the fleet-level statistics the plan phase fixes,
// computed from raw arm outcomes.
type schedStats struct {
	batches        int
	meanBatch      float64
	queueP99       float64
	utilization    float64
	retries        int
	classicalShare float64
}

func fleetSchedStats(arms []armOutcome, devices int) schedStats {
	type batchKey struct{ pool, dev, batch int }
	type span struct{ start, finish float64 }
	batches := map[batchKey]*span{}
	var queues []float64
	var st schedStats
	served, classical := 0, 0
	makespan := 0.0
	for _, a := range arms {
		makespan = math.Max(makespan, a.Finish)
		if a.Shed || a.Batch < 0 {
			continue
		}
		served++
		queues = append(queues, a.QueueMicros)
		st.retries += a.Attempts - 1
		if a.Backend != "" && a.Backend != fleet.BackendQPUSim.String() {
			classical++
		}
		k := batchKey{a.pool, a.Device, a.Batch}
		if b := batches[k]; b == nil {
			batches[k] = &span{a.Start, a.Finish}
		} else {
			b.finish = math.Max(b.finish, a.Finish)
		}
	}
	st.batches = len(batches)
	if st.batches > 0 {
		st.meanBatch = float64(served) / float64(st.batches)
	}
	sort.Float64s(queues)
	st.queueP99 = nearestRank(queues, 0.99)
	busy := 0.0
	for _, b := range batches {
		busy += b.finish - b.start
	}
	if makespan > 0 && devices > 0 {
		st.utilization = busy / (float64(devices) * makespan)
	}
	if served > 0 {
		st.classicalShare = float64(classical) / float64(served)
	}
	return st
}

// tracedPass is one traced pass with its replays.
type tracedPass struct {
	out   *passOut
	cost  hostCost // the whole pass
	lg    *ledger  // the pass's own spans
	rl    *ledger  // replays and the bare serve
	rs    replayStats
	fuses int
	// untracedCPUMS is the untraced passes' CPU ms per frame.
	untracedCPUMS float64
}

// layerMetrics turns a traced pass and its replays into the per-layer
// metrics, plus per-unit detail for the layers only some workloads run.
func layerMetrics(tp tracedPass) (map[string]float64, map[string]float64) {
	out, lg, rl, rs := tp.out, tp.lg, tp.rl, tp.rs
	n := float64(len(out.frames))
	passUS := float64(tp.cost.CPU) / float64(time.Microsecond)
	share := func(us float64) float64 { return us / passUS }
	perFrame := func(us float64) float64 { return us / n }
	// perUnit is zero where a layer did no work.
	perUnit := func(us, units float64) float64 {
		if units == 0 {
			return 0
		}
		return us / units
	}

	misses := float64(out.prepStats.misses)
	perCompile := perUnit(rl.cpuUS(layerCompile), float64(rs.compiles))
	compileUS := perCompile * misses
	kernelUS, classicalUS, fuseUS := rl.cpuUS(layerKernel), rl.cpuUS(layerClassical), rl.cpuUS(layerFuse)
	serveUS := lg.cpuUS(layerServe)
	telemetryUS := 0.0
	if out.serveAgain != nil {
		telemetryUS = serveUS - rl.cpuUS(layerBareServe)
	}
	deviceUS := compileUS + kernelUS + classicalUS + fuseUS
	topkUS := lg.cpuUS(layerTopK)
	candidateUS := lg.cpuUS(layerGreedy) + topkUS

	quantum := 0
	for _, f := range out.frames {
		if f.source == core.AnswerQuantum {
			quantum++
		}
	}
	ss := fleetSchedStats(out.arms, out.devices)
	imbalance := 0.0
	if len(out.shardAdmitted) > 0 {
		maxA, sum := 0, 0
		for _, a := range out.shardAdmitted {
			sum += a
			if a > maxA {
				maxA = a
			}
		}
		if sum > 0 {
			imbalance = float64(maxA) * float64(len(out.shardAdmitted)) / float64(sum)
		}
	}
	m := map[string]float64{
		"annealer.reads":                  float64(rs.reads),
		"annealer.kernel_us_per_read":     perUnit(kernelUS, float64(rs.reads)),
		"annealer.kernel_share":           share(kernelUS),
		"annealer.compiles":               misses,
		"annealer.compile_us_per_problem": perCompile,
		"annealer.prep_hit_rate":          perUnit(float64(out.prepStats.hits), float64(out.prepStats.hits+out.prepStats.misses)),
		"core.topk_share":                 share(topkUS),
		"core.quantum_answer_share":       float64(quantum) / n,
		"qubo.candidate_us_per_frame":     perFrame(candidateUS),
		"mimo.reduce_us_per_frame":        perFrame(lg.cpuUS(layerReduce)),
		"mimo.decode_us_per_frame":        perFrame(lg.cpuUS(layerDecode)),
		"qubo.classical_reads":            float64(rs.classicalReads),
		"qubo.classical_share":            share(classicalUS),
		"mimo.fuse_share":                 share(fuseUS),
		"coding.viterbi_share":            share(lg.cpuUS(layerViterbi)),
		"fleet.sched_us_per_frame":        perFrame(serveUS - deviceUS - telemetryUS),
		"fleet.batches":                   float64(ss.batches),
		"fleet.mean_batch_size":           ss.meanBatch,
		"fleet.queue_p99_us":              ss.queueP99,
		"fleet.device_utilization":        ss.utilization,
		"fleet.retries":                   float64(ss.retries),
		"fleet.classical_frame_share":     ss.classicalShare,
		"fleet.route_fallbacks":           float64(out.routeFallbacks),
		"cran.router_shed":                float64(out.routerShed),
		"cran.failovers":                  float64(out.failovers),
		"cran.shard_imbalance":            imbalance,
		"telemetry.records":               float64(out.records),
		"telemetry.serve_overhead_share":  share(telemetryUS),
		"telemetry.jsonl_share":           share(lg.cpuUS(layerJSONL)),
		"telemetry.jsonl_bytes":           float64(out.jsonlBytes),
		"slo.finish_share":                share(lg.cpuUS(layerSLOFinish)),
		"slo.dashboard_share":             share(lg.cpuUS(layerSLODashboard)),
		"slo.retained_mb":                 out.retainedMB,
		"bench.trace_overhead":            (passUS/1e3/n)/tp.untracedCPUMS - 1,
		"bench.layer_coverage":            lg.totalCPUUS() / passUS,
		"bench.replay_ratio":              deviceUS / serveUS,
	}
	// Per-unit costs of the layers only some workloads exercise.
	detail := map[string]float64{
		"core.topk_us_per_frame":                perFrame(topkUS),
		"qubo.classical_us_per_read":            perUnit(classicalUS, float64(rs.classicalReads)),
		"mimo.fuse_us_per_frame":                perUnit(fuseUS, float64(tp.fuses)),
		"coding.viterbi_us_per_packet":          perUnit(lg.cpuUS(layerViterbi), float64(out.packets)),
		"telemetry.serve_overhead_us_per_frame": perUnit(telemetryUS, n),
		"telemetry.jsonl_us_per_record":         perUnit(lg.cpuUS(layerJSONL), float64(out.records)),
		"slo.finish_us_per_record":              perUnit(lg.cpuUS(layerSLOFinish), float64(out.records)),
		"slo.dashboard_ms":                      lg.cpuUS(layerSLODashboard) / 1e3,
	}
	return m, detail
}
