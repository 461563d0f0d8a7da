// Command annealsim runs the simulated quantum annealer on a standalone
// QUBO/Ising problem — either a random spin glass or an instance file
// produced by the instance package — under any of the FA/RA/FR schedules,
// and reports sample statistics.
//
// Usage:
//
//	annealsim -spins 24 -schedule fa -reads 500
//	annealsim -spins 24 -schedule ra -sp 0.45 -reads 500
//	annealsim -instance inst.json -schedule fr -cp 0.7 -sp 0.4
//	annealsim -spins 16 -schedule ra -engine pimc -embed
//	annealsim -spins 24 -schedule ra -fault-timeout 0.3 -fault-storm 0.2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/annealer"
	"repro/internal/cli"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/qubo"
	"repro/internal/rng"
)

func main() {
	log := cli.New("annealsim")
	log.RegisterVerbosity()
	tel := cli.RegisterTelemetry()
	var (
		spins    = flag.Int("spins", 24, "random spin-glass size (ignored with -instance)")
		instPath = flag.String("instance", "", "JSON instance file (from the instance package)")
		schedule = flag.String("schedule", "ra", "anneal schedule: fa|ra|fr")
		sp       = flag.Float64("sp", 0.45, "pause / switch location s_p")
		cp       = flag.Float64("cp", 0.7, "FR forward turn point c_p")
		ta       = flag.Float64("ta", 1, "anneal time t_a (μs)")
		tp       = flag.Float64("tp", 1, "pause time t_p (μs)")
		reads    = flag.Int("reads", 500, "number of anneal reads N_s")
		engine   = flag.String("engine", "svmc", "dynamics engine: svmc|svmc-tf|pimc")
		embed    = flag.Bool("embed", false, "anneal the Chimera-embedded physical problem: the QPU model with chain dynamics and broken-chain accounting")
		seed     = flag.Uint64("seed", 1, "random seed")
		ice      = flag.Bool("ice", false, "apply 2000Q-typical control-error noise")
		plot     = flag.Bool("plot", false, "render the anneal schedule (Figure 5 style)")

		faultProg    = flag.Float64("fault-prog", 0, "programming-failure probability per call")
		faultTimeout = flag.Float64("fault-timeout", 0, "per-read timeout probability")
		faultStorm   = flag.Float64("fault-storm", 0, "per-read chain-break-storm probability")
		faultDrift   = flag.Float64("fault-drift", 0, "per-read calibration-drift probability")
		probe        = flag.Bool("probe", false, "record sweep-level engine observations into -trace-out/-metrics-out")
	)
	flag.Parse()
	if *reads < 1 {
		log.Fatalf("-reads %d: want at least 1 read", *reads)
	}
	if err := tel.Start("annealsim", log); err != nil {
		log.Fatalf("%v", err)
	}

	is, ground, err := loadProblem(*instPath, *spins, *seed)
	if err != nil {
		log.Fatalf("%v", err)
	}
	fmt.Printf("problem: %d spins, %d couplings, ground energy %.6g\n", is.N, is.NumEdges(), ground)

	var sc *annealer.Schedule
	switch *schedule {
	case "fa":
		sc, err = annealer.Forward(*ta, *sp, *tp)
	case "ra":
		sc, err = annealer.Reverse(*sp, *tp)
	case "fr":
		sc, err = annealer.ForwardReverse(*cp, *sp, *tp, *ta)
	default:
		err = fmt.Errorf("unknown schedule %q (fa|ra|fr)", *schedule)
	}
	if err != nil {
		log.Fatalf("%v", err)
	}
	fmt.Printf("schedule: %s, duration %.2f μs, points %v\n", sc.Kind, sc.Duration(), sc.Points)
	if *plot {
		fmt.Print(sc.Render(60, 12))
	}

	params := annealer.Params{
		Schedule: sc,
		NumReads: *reads,
	}
	prof := annealer.CalibratedProfile()
	params.Profile = &prof
	switch *engine {
	case "svmc":
		params.Engine = annealer.SVMC{}
	case "svmc-tf":
		params.Engine = annealer.SVMC{TFMoves: true}
	case "pimc":
		params.Engine = annealer.PIMC{}
	default:
		log.Fatalf("unknown engine %q (svmc|svmc-tf|pimc)", *engine)
	}
	if *ice {
		params.ICE = annealer.DWave2000QICE()
	}
	params.Faults = annealer.FaultModel{
		ProgrammingFailureRate: *faultProg,
		ReadTimeoutRate:        *faultTimeout,
		ChainBreakStormRate:    *faultStorm,
		CalibrationDriftRate:   *faultDrift,
	}
	params.Trace = tel.Tracer
	params.Metrics = tel.Registry
	if *probe {
		params.Probe = &annealer.MetricsProbe{Trace: tel.Tracer, Metrics: tel.Registry, Engine: *engine}
	}
	if sc.StartsClassical() {
		// Initialize RA with the greedy candidate, as the hybrid does.
		params.InitialState = qubo.GreedySearchIsing(is, qubo.OrderDescending)
		fmt.Printf("RA initial state: greedy search, energy %.6g\n", is.Energy(params.InitialState))
	}

	r := rng.New(*seed ^ 0x5117)
	var res *annealer.Result
	if *embed {
		q := annealer.NewQPU2000Q()
		q.Chains = true
		res, err = q.Run(is, params, r)
	} else {
		res, err = annealer.Run(is, params, r)
	}
	if err != nil {
		if fe, ok := annealer.AsFault(err); ok {
			log.Fatalf("run lost to injected fault: %s (retry or fall back to a classical answer)", fe.Kind)
		}
		log.Fatalf("run: %v", err)
	}
	if params.Faults.Enabled() {
		fmt.Printf("injected faults: %d read timeouts, %d chain-break storms, %d calibration drifts (%d/%d reads survived)\n",
			res.Faults.ReadTimeouts, res.Faults.ChainBreakStorms, res.Faults.CalibrationDrifts,
			len(res.Samples), *reads)
	}

	var energies []float64
	for _, s := range res.Samples {
		energies = append(energies, s.Energy)
	}
	p := metrics.SuccessProbability(res.Samples, ground, 1e-6)
	fmt.Printf("reads: %d, total anneal time %.1f μs\n", len(res.Samples), res.TotalAnnealTime)
	fmt.Printf("best energy: %.6g (ground %.6g)\n", res.Best.Energy, ground)
	fmt.Printf("energy mean/median/p95: %.6g / %.6g / %.6g\n",
		metrics.Mean(energies), metrics.Median(energies), metrics.Percentile(energies, 95))
	fmt.Printf("p★ (ground-state probability): %.4f\n", p)
	if p > 0 {
		fmt.Printf("TTS(99%%): %.2f μs\n", metrics.TTS(sc.Duration(), p, 99))
	} else {
		fmt.Println("TTS(99%): ∞ (ground state never sampled)")
	}
	if *embed {
		fmt.Printf("broken-chain rate: %.4f\n", res.BrokenChainRate)
	}
	if err := tel.Flush(log); err != nil {
		log.Fatalf("telemetry: %v", err)
	}
}

// loadProblem returns the Ising problem and its ground-energy witness.
func loadProblem(path string, spins int, seed uint64) (*qubo.Ising, float64, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		var in instance.Instance
		if err := json.Unmarshal(data, &in); err != nil {
			return nil, 0, fmt.Errorf("parse %s: %w", path, err)
		}
		return in.Reduction.Ising, in.GroundEnergy, nil
	}
	// Random spin glass with N(0,1) fields and couplings.
	r := rng.New(seed)
	is := qubo.NewIsing(spins)
	for i := 0; i < spins; i++ {
		is.H[i] = r.NormFloat64() * 0.3
		for j := i + 1; j < spins; j++ {
			is.SetCoupling(i, j, r.NormFloat64()*0.5)
		}
	}
	var ground float64
	if spins <= qubo.MaxExhaustiveVars {
		g, err := qubo.ExhaustiveIsing(is)
		if err != nil {
			return nil, 0, err
		}
		ground = g.Energy
	} else {
		ground = qubo.MultiStartGroundEstimate(is, r, 8).Energy
	}
	return is, ground, nil
}
