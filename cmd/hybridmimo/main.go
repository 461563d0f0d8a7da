// Command hybridmimo synthesizes a MIMO detection instance and solves it
// with any of the repository's detectors and hybrid solvers, printing the
// recovered symbols, solution quality (ΔE%), and timing.
//
// Usage:
//
//	hybridmimo -users 8 -mod 16qam -solver gs+ra
//	hybridmimo -users 12 -mod qpsk -solver sd -snr 20
//	hybridmimo -users 8 -mod 16qam -solver gs+ra -sweep   # s_p sweep
//
// Fleet-served runs (-fleet-devices > 0) can additionally emit the SLO
// monitoring dashboard with the shared telemetry flag -slo-report (see
// internal/slo and cmd/slotool for the offline path over -trace-out):
//
//	hybridmimo -users 8 -solver gs+ra -fleet-devices 4 -slo-report slo.txt
//
// Mixed-backend pools spell out each worker's kind and can route by
// instance hardness and deadline slack:
//
//	hybridmimo -users 8 -fleet-backends qpu,qpu,pt,sa -fleet-route hybrid
//
// Solvers: ml, zf, mmse, sd, kbest, fcsd, gs, sa, tabu, pt (classical);
// fa, fr, gs+ra, zf+ra, random+ra, fa+descent, co, decomp, persist
// (annealer-based).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/annealer"
	"repro/internal/channel"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/cran"
	"repro/internal/fleet"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

func main() {
	log := cli.New("hybridmimo")
	log.RegisterQuiet() // -v already means per-sample details here
	tel := cli.RegisterTelemetry()
	var (
		users   = flag.Int("users", 8, "number of users / transmit antennas")
		mod     = flag.String("mod", "16qam", "modulation: bpsk|qpsk|16qam|64qam")
		solver  = flag.String("solver", "gs+ra", "solver name (see doc comment)")
		snr     = flag.Float64("snr", -1, "receive SNR in dB (-1 = noiseless, the paper's setting)")
		seed    = flag.Uint64("seed", 1, "instance seed")
		reads   = flag.Int("reads", 200, "anneal reads for quantum solvers")
		sp      = flag.Float64("sp", 0.45, "RA switch/pause location")
		sweep   = flag.Bool("sweep", false, "sweep s_p and report the best operating point")
		embed   = flag.Bool("embed", false, "run anneals on the Chimera-embedded physical problem: the QPU model with chain dynamics")
		verbose = flag.Bool("v", false, "print per-sample details")

		faultProg     = flag.Float64("fault-prog", 0, "QPU programming-failure probability per call")
		faultTimeout  = flag.Float64("fault-timeout", 0, "per-read timeout probability")
		faultStorm    = flag.Float64("fault-storm", 0, "per-read chain-break-storm probability")
		faultDrift    = flag.Float64("fault-drift", 0, "per-read calibration-drift probability")
		fallback      = flag.Bool("fallback", false, "answer with the classical candidate when the quantum stage faults (gs+ra/zf+ra/random+ra)")
		probe         = flag.Bool("probe", false, "record sweep-level engine observations into -trace-out/-metrics-out")
		fleetDevices  = flag.Int("fleet-devices", 0, "serve the instance through a simulated multi-QPU fleet of this size (0 = direct solve)")
		fleetPolicy   = flag.String("fleet-policy", "least-loaded", "fleet scheduling policy: least-loaded|round-robin|edf")
		fleetBackends = flag.String("fleet-backends", "", "serve through an explicit mixed-backend pool, e.g. qpu,qpu,pt,sa (overrides -fleet-devices)")
		fleetRoute    = flag.String("fleet-route", "any", "fleet routing policy: any|hybrid (hardness/deadline-aware)")
		cranShards    = flag.Int("cran-shards", 0, "serve a generated city workload through a sharded C-RAN tier of this many shards (4 QPUs each; 0 = off)")
		cranCells     = flag.Int("cran-cells", 12, "cell count for the -cran-shards demo workload")
		cranPlace     = flag.String("cran-placement", "hash", "C-RAN cell-placement policy: hash|load-aware")
		progMicros    = flag.Float64("prog-us", 10_000, "programming overhead μs used to lay out trace spans (telemetry only)")
		readoutUs     = flag.Float64("readout-us", 123, "per-read readout μs used to lay out trace spans (telemetry only)")
	)
	flag.Parse()
	log.SetVerbose(*verbose)
	if *reads < 1 {
		log.Fatalf("-reads %d: want at least 1 read", *reads)
	}
	if err := tel.Start("hybridmimo", log); err != nil {
		log.Fatalf("%v", err)
	}

	scheme, err := modulation.ParseScheme(*mod)
	if err != nil {
		log.Fatalf("%v", err)
	}
	n0 := 0.0
	if *snr >= 0 {
		n0 = channel.NoiseVarianceForSNR(*snr, *users)
	}
	inst, err := instance.Synthesize(instance.Spec{
		Users: *users, Scheme: scheme, Channel: channel.UnitGainRandomPhase,
		NoiseVariance: n0, Seed: *seed,
	})
	if err != nil {
		log.Fatalf("synthesize: %v", err)
	}
	fmt.Printf("instance: %d-user %s, %d QUBO variables, seed %d\n",
		*users, scheme, inst.Reduction.NumSpins(), *seed)
	fmt.Printf("ground energy (Ising, incl. offset): %.6g\n", inst.GroundEnergy)

	cfg := core.AnnealConfig{}
	prof := annealer.CalibratedProfile()
	cfg.Profile = &prof
	if *embed {
		cfg.QPU = annealer.NewQPU2000Q()
		cfg.QPU.Chains = true
	}
	cfg.Faults = annealer.FaultModel{
		ProgrammingFailureRate: *faultProg,
		ReadTimeoutRate:        *faultTimeout,
		ChainBreakStormRate:    *faultStorm,
		CalibrationDriftRate:   *faultDrift,
	}
	cfg.Trace = tel.Tracer
	cfg.Metrics = tel.Registry
	if *probe {
		cfg.Probe = &annealer.MetricsProbe{Trace: tel.Tracer, Metrics: tel.Registry, Engine: "svmc"}
	}
	if *progMicros > 0 || *readoutUs > 0 {
		cfg.Timing = &annealer.DeviceTiming{ProgrammingMicros: *progMicros, ReadoutMicros: *readoutUs}
	}
	r := rng.New(*seed ^ 0xABCDEF)

	if *cranShards > 0 {
		if err := serveCRAN(*cranShards, *cranCells, *cranPlace, *seed, tel); err != nil {
			log.Fatalf("cran: %v", err)
		}
		if err := tel.Flush(log); err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		return
	}

	if *fleetDevices > 0 || *fleetBackends != "" {
		if err := serveFleet(inst, *fleetDevices, *fleetBackends, *fleetPolicy, *fleetRoute, *reads, *seed, tel, r); err != nil {
			log.Fatalf("fleet: %v", err)
		}
		if err := tel.Flush(log); err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		return
	}

	if *sweep {
		best, init, err := core.OptimizeSp(inst.Reduction, nil, inst.GroundEnergy, *reads, cfg, r)
		if err != nil {
			log.Fatalf("sweep: %v", err)
		}
		d := metrics.DeltaEForIsing(inst.Reduction.Ising, inst.Reduction.Ising.Energy(init), inst.GroundEnergy)
		fmt.Printf("greedy candidate ΔE_IS%%: %.3f\n", d)
		fmt.Printf("best s_p = %.2f: p★ = %.4f, TTS(99%%) = %.2f μs (schedule %.2f μs)\n",
			best.Sp, best.PStar, best.TTS, best.Duration)
		if err := tel.Flush(log); err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		return
	}

	symbols, info, err := solve(*solver, inst, cfg, *reads, *sp, *fallback, r)
	if err != nil {
		log.Fatalf("%v", err)
	}
	errs := mimo.SymbolErrors(symbols, inst.Transmitted)
	bits := mimo.BitErrors(scheme, symbols, inst.Transmitted)
	obj := inst.Problem.Objective(symbols)
	fmt.Printf("solver: %s\n", *solver)
	if info != "" {
		fmt.Print(info)
	}
	fmt.Printf("objective ‖y−Hx̂‖²: %.6g\n", obj)
	fmt.Printf("symbol errors: %d/%d, bit errors: %d/%d\n",
		errs, *users, bits, *users*scheme.BitsPerSymbol())
	if *verbose {
		for i, x := range symbols {
			fmt.Printf("  user %2d: detected %7.4f%+7.4fi  transmitted %7.4f%+7.4fi\n",
				i, real(x), imag(x), real(inst.Transmitted[i]), imag(inst.Transmitted[i]))
		}
	}
	if err := tel.Flush(log); err != nil {
		log.Fatalf("telemetry: %v", err)
	}
}

// serveFleet demos the multi-QPU serving path: the synthesized channel
// use is replayed as several concurrent detection streams against a
// heterogeneous simulated fleet, and the scheduler's report (throughput,
// batching, per-device utilization) is printed instead of a single solve.
func serveFleet(inst *instance.Instance, devices int, backends, policy, route string, reads int, seed uint64, tel *cli.Telemetry, r *rng.Source) error {
	pol, err := fleet.ParsePolicy(policy)
	if err != nil {
		return err
	}
	rt, err := fleet.ParseRoutePolicy(route)
	if err != nil {
		return err
	}
	devs := fleet.DefaultDevices(devices)
	if backends != "" {
		if devs, err = fleet.ParseBackends(backends); err != nil {
			return err
		}
	}
	const streams, perStream = 4, 4
	var reqs []fleet.Request
	for s := 0; s < streams; s++ {
		for q := 0; q < perStream; q++ {
			init, err := core.GreedyModule{}.Initialize(inst.Reduction, r.Split(uint64(s*perStream+q)))
			if err != nil {
				return err
			}
			reqs = append(reqs, fleet.Request{
				Stream: s, Seq: q,
				Arrival:      float64(q) * 100,
				Problem:      inst.Reduction.Ising,
				InitialState: init,
			})
		}
	}
	out, err := fleet.Serve(context.Background(), fleet.Config{
		Devices:  devs,
		Policy:   pol,
		Route:    rt,
		NumReads: reads,
		Seed:     seed,
		Trace:    tel.Tracer,
		Metrics:  tel.Registry,
	}, reqs)
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d devices serving %d streams × %d frames\n", len(devs), streams, perStream)
	bySource := map[string]int{}
	for _, o := range out.Outcomes {
		bySource[o.Source.String()]++
	}
	fmt.Printf("answers: %v\n\n", bySource)
	return out.Report.WriteTable(os.Stdout)
}

// serveCRAN demos the sharded serving tier: a generated bursty city
// workload of cells × 2 UE streams is routed across `shards` fleet
// shards of 4 simulated QPUs each, with one shard's pool dying mid-run
// so cross-shard failover shows up in the report.
func serveCRAN(shards, cells int, placement string, seed uint64, tel *cli.Telemetry) error {
	pol, err := cran.ParsePlacement(placement)
	if err != nil {
		return err
	}
	const duration = 30_000.0
	reqs, err := cran.Workload{
		Cells: cells, UEsPerCell: 2,
		DurationMicros:  duration,
		FramesPerSecond: 150,
		Diurnal:         cran.DefaultDiurnal(),
		BurstProb:       0.25, BurstFactor: 2.5,
		NumReads:       8,
		DeadlineMicros: 20_000,
		Seed:           seed,
	}.Generate()
	if err != nil {
		return err
	}
	pools := make([][]fleet.Device, shards)
	for s := range pools {
		pools[s] = fleet.DefaultDevices(4)
	}
	if shards >= 2 {
		// Kill shard 1 halfway through so the demo exercises failover.
		for d := range pools[1] {
			pools[1][d].FailAt = duration / 2
		}
	}
	out, err := cran.Serve(context.Background(), cran.Config{
		Shards:           pools,
		Placement:        pol,
		Fleet:            fleet.Config{BatchMax: 4},
		AdmitQueueMicros: 15_000,
		EstReadMicros:    350,
		Seed:             seed,
		Trace:            tel.Tracer,
		Metrics:          tel.Registry,
	}, reqs)
	if err != nil {
		return err
	}
	fmt.Printf("cran: %d shards × 4 QPUs serving %d cells (%d frames)\n\n",
		shards, cells, len(reqs))
	return out.Report.WriteTable(os.Stdout)
}

func solve(name string, inst *instance.Instance, cfg core.AnnealConfig, reads int, sp float64, fallback bool, r *rng.Source) ([]complex128, string, error) {
	red := inst.Reduction
	is := red.Ising
	deltaOf := func(e float64) float64 {
		return metrics.DeltaEForIsing(is, e, inst.GroundEnergy)
	}
	switch strings.ToLower(name) {
	case "ml", "zf", "mmse", "sd", "kbest", "fcsd":
		det, err := detectorByName(name)
		if err != nil {
			return nil, "", err
		}
		syms, err := det.Detect(inst.Problem)
		return syms, "", err
	case "gs":
		sol := qubo.GreedySearchIsing(is, qubo.OrderDescending)
		return red.DecodeSpins(sol), fmt.Sprintf("ΔE%%: %.3f\n", deltaOf(is.Energy(sol))), nil
	case "sa":
		sol := qubo.SimulatedAnnealing(is, r, qubo.SAOptions{})
		return red.DecodeSpins(sol.Spins), fmt.Sprintf("ΔE%%: %.3f\n", deltaOf(sol.Energy)), nil
	case "tabu":
		sol := qubo.TabuSearch(is, r, qubo.TabuOptions{})
		return red.DecodeSpins(sol.Spins), fmt.Sprintf("ΔE%%: %.3f\n", deltaOf(sol.Energy)), nil
	case "pt":
		sol := qubo.ParallelTempering(is, r, qubo.PTOptions{})
		return red.DecodeSpins(sol.Spins), fmt.Sprintf("ΔE%%: %.3f\n", deltaOf(sol.Energy)), nil
	}

	var out *core.Outcome
	var err error
	switch strings.ToLower(name) {
	case "fa":
		out, err = (&core.ForwardSolver{NumReads: reads, Config: cfg}).Solve(red, r)
	case "fr":
		out, err = (&core.ForwardReverseSolver{NumReads: reads, Sp: sp, Config: cfg}).Solve(red, r)
	case "gs+ra":
		out, err = (&core.Hybrid{Sp: sp, NumReads: reads, Config: cfg, FallbackOnFault: fallback}).Solve(red, r)
	case "zf+ra":
		out, err = (&core.Hybrid{Classical: core.DetectorModule{Detector: mimo.ZeroForcing{}}, Sp: sp, NumReads: reads, Config: cfg, FallbackOnFault: fallback}).Solve(red, r)
	case "random+ra":
		out, err = (&core.Hybrid{Classical: core.RandomModule{}, Sp: sp, NumReads: reads, Config: cfg, FallbackOnFault: fallback}).Solve(red, r)
	case "fa+descent":
		out, err = (&core.PostProcessing{Forward: core.ForwardSolver{NumReads: reads, Config: cfg}}).Solve(red, r)
	case "co":
		out, err = (&core.CoProcessing{ReadsPerRound: max(1, reads/3), Sp: sp, Config: cfg}).Solve(red, r)
	case "decomp":
		out, err = (&core.Decomposition{ReadsPerBlock: max(1, reads/4), Sp: sp, Config: cfg}).Solve(red, r)
	case "persist":
		out, err = (&core.SamplePersistence{ReadsPerRound: max(1, reads/3), Config: cfg}).Solve(red, r)
	default:
		return nil, "", fmt.Errorf("unknown solver %q", name)
	}
	if err != nil {
		return nil, "", err
	}
	if out.Source == core.AnswerClassicalFallback {
		info := fmt.Sprintf("answer source: %s (quantum fault: %v)\n", out.Source, out.Fault)
		info += fmt.Sprintf("classical candidate ΔE_IS%%: %.3f\n", deltaOf(out.InitialEnergy))
		return out.Symbols, info, nil
	}
	p := metrics.SuccessProbability(out.Samples, inst.GroundEnergy, 1e-6)
	info := fmt.Sprintf("best sample ΔE%%: %.3f  p★: %.4f  anneal time: %.1f μs (%d reads × %.2f μs)\n",
		deltaOf(out.Best.Energy), p, out.AnnealTime, len(out.Samples), out.ScheduleDuration)
	info += fmt.Sprintf("answer source: %s\n", out.Source)
	if out.FaultStats.Total() > 0 {
		info += fmt.Sprintf("injected faults survived: %d timeouts, %d storms, %d drifts\n",
			out.FaultStats.ReadTimeouts, out.FaultStats.ChainBreakStorms, out.FaultStats.CalibrationDrifts)
	}
	if out.InitialState != nil {
		info += fmt.Sprintf("classical candidate ΔE_IS%%: %.3f\n", deltaOf(out.InitialEnergy))
	}
	return out.Symbols, info, nil
}

func detectorByName(name string) (mimo.Detector, error) {
	switch strings.ToLower(name) {
	case "ml":
		return mimo.ML{}, nil
	case "zf":
		return mimo.ZeroForcing{}, nil
	case "mmse":
		return mimo.MMSE{}, nil
	case "sd":
		return mimo.SphereDecoder{}, nil
	case "kbest":
		return mimo.KBest{K: 16}, nil
	case "fcsd":
		return mimo.FCSD{FullExpansion: 2}, nil
	}
	return nil, fmt.Errorf("unknown detector %q", name)
}
