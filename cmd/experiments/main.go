// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -fig all                # every figure at quick scale
//	experiments -fig 8 -scale full      # Figure 8 at paper scale
//	experiments -fig headline -out dir  # write series files into dir
//	experiments -fig 8 -bench-json out  # also write BENCH_figure8.json
//	experiments -validate               # gate the paper claims on bootstrap CIs
//	experiments -check-golden           # compare figures against results/golden/
//	experiments -update-golden          # re-baseline results/golden/ (explicit!)
//
// Output is the same rows the paper plots (see DESIGN.md's
// per-experiment index); -out writes one text file per figure,
// otherwise everything prints to stdout. -bench-json additionally
// records each figure's wall time, configuration, and rendered series
// as a machine-readable BENCH_*.json file.
//
// The -validate and -check-golden modes exit non-zero when any claim
// fails (or is inconclusive) or any golden metric drifts; see DESIGN.md's
// "Validation" section for the statistics behind the gates.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/cran"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/telemetry"
	"repro/internal/validate"
)

// Fleet-figure knobs, shared with runFigure.
var (
	fleetDevices int
	fleetPolicy  string
)

// figures lists every figure name in -fig all order; "pipeline" is
// accepted as an alias of "2".
var figures = []string{"2", "3", "4", "6", "7", "8", "headline", "ablation-modules", "ablation-device", "ablation-gsorder", "ber", "hardness", "qaoa", "capacity", "availability", "fleet", "hybrid", "cran", "cran-slo", "ensemble"}

// C-RAN-figure knobs, shared with runFigure.
var (
	cranShards    int
	cranCells     int
	cranPlacement string
)

// Ensemble-figure knobs, shared with runFigure.
var (
	ensembleK      int
	ensembleSpGrid string
)

func main() {
	log := cli.New("experiments")
	log.RegisterVerbosity()
	tel := cli.RegisterTelemetry()
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: "+strings.Join(figures, "|")+"|all")
		scale     = flag.String("scale", "quick", "effort: quick|full")
		out       = flag.String("out", "", "directory for per-figure output files (default stdout)")
		seed      = flag.Uint64("seed", 0, "override experiment seed (0 = default)")
		benchJSON = flag.String("bench-json", "", "directory for machine-readable BENCH_*.json records")
	)
	var (
		doValidate   = flag.Bool("validate", false, "run the statistical claim gates instead of regenerating figures")
		checkGolden  = flag.Bool("check-golden", false, "compare figure metrics against the committed golden baselines")
		updateGolden = flag.Bool("update-golden", false, "rewrite the golden baselines (explicit re-baselining only)")
		goldenDir    = flag.String("golden-dir", filepath.Join("results", "golden"), "directory holding the golden baseline JSON files")
		inject       = flag.String("validate-inject", "", "deliberate regression for harness self-tests: ra-degraded|reads-slashed|fleet-serial|cran-single-shard|hybrid-routing-off|ensemble-collapsed")
		maxReads     = flag.Int("validate-max-reads", 0, "per-claim anneal-read budget for -validate (0 = default)")
		driftOut     = flag.String("drift-report", "", "file for the machine-readable drift report JSON from -check-golden")
	)
	flag.IntVar(&fleetDevices, "fleet-devices", 8, "largest QPU pool the fleet figure scales to")
	flag.StringVar(&fleetPolicy, "fleet-policy", "least-loaded", "fleet scheduling policy: least-loaded|round-robin|edf")
	flag.IntVar(&cranShards, "cran-shards", 8, "shard count for the cran figure (4 QPUs per shard)")
	flag.IntVar(&cranCells, "cran-cells", 200, "cell count for the cran figure (5 UE streams per cell)")
	flag.StringVar(&cranPlacement, "cran-placement", "hash", "cran cell-placement policy: hash|load-aware")
	flag.IntVar(&ensembleK, "ensemble-k", 0, "extra custom ensemble-figure variant: candidate count (0 = default sweep only)")
	flag.StringVar(&ensembleSpGrid, "ensemble-sp-grid", "", "extra custom ensemble-figure variant: comma-separated s_p grid, e.g. 0.37,0.45,0.53")
	flag.Parse()
	if err := tel.Start("experiments", log); err != nil {
		log.Fatalf("%v", err)
	}

	if *doValidate || *checkGolden || *updateGolden {
		// -seed 0 keeps the validation default (2020).
		opts := validate.Options{Seed: *seed, Inject: *inject, MaxReads: *maxReads}
		if err := runValidation(opts, *doValidate, *checkGolden, *updateGolden, *goldenDir, *driftOut, log); err != nil {
			log.Fatalf("%v", err)
		}
		if err := tel.Flush(log); err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		return
	}

	cfg := experiments.Quick()
	if *scale == "full" {
		cfg = experiments.Full()
	} else if *scale != "quick" {
		log.Fatalf("unknown -scale %q (quick|full)", *scale)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Trace = tel.Tracer
	cfg.Metrics = tel.Registry

	figs := strings.Split(*fig, ",")
	if *fig == "all" {
		figs = figures
	}
	for _, f := range figs {
		if err := runFigure(strings.TrimSpace(f), cfg, *out, *benchJSON, log); err != nil {
			log.Fatalf("figure %s: %v", f, err)
		}
	}
	if err := tel.Flush(log); err != nil {
		log.Fatalf("telemetry: %v", err)
	}
}

// runValidation dispatches the -validate / -check-golden / -update-golden
// modes. Any failed or inconclusive claim and any drifted golden metric
// comes back as an error, so `make validate` gates on the exit code.
func runValidation(opts validate.Options, doValidate, checkGolden, updateGolden bool, goldenDir, driftOut string, log *cli.Logger) error {
	if updateGolden {
		start := time.Now()
		if err := validate.UpdateGoldens(goldenDir, opts); err != nil {
			return fmt.Errorf("update goldens: %w", err)
		}
		log.Infof("rebaselined %d golden figures under %s in %v", len(validate.GoldenFigures), goldenDir, time.Since(start))
	}
	if checkGolden {
		rep, err := validate.CheckGoldens(goldenDir, opts)
		if err != nil {
			return fmt.Errorf("check goldens: %w", err)
		}
		rep.WriteTable(os.Stdout)
		if driftOut != "" {
			buf, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(driftOut, append(buf, '\n'), 0o644); err != nil {
				return err
			}
			log.Infof("wrote drift report to %s", driftOut)
		}
		if n := rep.Failures(); n > 0 {
			return fmt.Errorf("golden check: %d metric(s) drifted from baseline", n)
		}
	}
	if doValidate {
		rep := validate.Run(opts)
		rep.WriteTable(os.Stdout)
		if n := rep.Failures(); n > 0 {
			return fmt.Errorf("validation: %d claim(s) not demonstrated", n)
		}
	}
	return nil
}

// tabler is the common surface of every figure result.
type tabler interface{ WriteTable(io.Writer) }

func runFigure(fig string, cfg experiments.Config, outDir, benchDir string, log *cli.Logger) error {
	var (
		res tabler
		err error
	)
	start := time.Now()
	switch fig {
	case "2", "pipeline":
		res, err = experiments.PipelineFigure(cfg, 0)
	case "3":
		res, err = experiments.Figure3(cfg, 0)
	case "4":
		res, err = experiments.Figure4(cfg)
	case "6":
		res, err = experiments.Figure6(cfg, 0)
	case "7":
		res, err = experiments.Figure7(cfg)
	case "8":
		res, err = experiments.Figure8(cfg)
	case "headline":
		res, err = experiments.Headline(cfg)
	case "ablation-modules":
		res, err = experiments.RunModuleAblation(cfg)
	case "ablation-device":
		res, err = experiments.RunDeviceAblation(cfg)
	case "ablation-gsorder":
		res, err = experiments.RunGreedyOrderAblation(cfg)
	case "ber":
		res, err = experiments.RunBER(cfg)
	case "hardness":
		res, err = experiments.RunHardness(cfg)
	case "qaoa":
		res, err = experiments.RunQAOA(cfg)
	case "capacity":
		res, err = experiments.RunCapacity(cfg)
	case "availability":
		res, err = experiments.RunAvailability(cfg)
	case "fleet":
		var pol fleet.Policy
		pol, err = fleet.ParsePolicy(fleetPolicy)
		if err != nil {
			return err
		}
		res, err = experiments.RunFleetScaling(cfg, fleetDevices, pol)
	case "hybrid":
		res, err = experiments.RunHybrid(cfg)
	case "cran":
		var pol cran.Placement
		pol, err = cran.ParsePlacement(cranPlacement)
		if err != nil {
			return err
		}
		res, err = experiments.RunCRAN(cfg, cranShards, cranCells, pol)
	case "cran-slo":
		var pol cran.Placement
		pol, err = cran.ParsePlacement(cranPlacement)
		if err != nil {
			return err
		}
		res, err = experiments.RunCRANSLO(cfg, 0, 0, pol)
	case "ensemble":
		var grid []float64
		if ensembleSpGrid != "" {
			if grid, err = core.ParseSpGrid(ensembleSpGrid); err != nil {
				return err
			}
		}
		res, err = experiments.RunEnsemble(cfg, ensembleK, grid)
	default:
		return fmt.Errorf("unknown figure %q (%s)", fig, strings.Join(figures, "|"))
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	log.Debugf("figure %s regenerated in %v", fig, elapsed)

	// Render once; tee to stdout/file and optionally into the bench record.
	var table bytes.Buffer
	res.WriteTable(&table)
	fmt.Fprintln(&table)
	w := io.Writer(os.Stdout)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(outDir, "figure"+fig+".txt"))
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if _, err := w.Write(table.Bytes()); err != nil {
		return err
	}
	if benchDir != "" {
		rec := telemetry.BenchRecord{
			Name:       "figure" + fig,
			NsPerOp:    float64(elapsed.Nanoseconds()),
			Iterations: 1,
			Config:     cfg,
			Series:     table.String(),
		}
		if err := telemetry.WriteBenchJSON(benchDir, rec); err != nil {
			return err
		}
		log.Infof("wrote bench record for figure %s to %s", fig, benchDir)
	}
	return nil
}
