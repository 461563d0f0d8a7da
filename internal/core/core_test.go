package core

import (
	"math"
	"testing"

	"repro/internal/annealer"
	"repro/internal/channel"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// testInstance builds a small noiseless detection instance.
func testInstance(t *testing.T, s modulation.Scheme, users int, seed uint64) *instance.Instance {
	t.Helper()
	inst, err := instance.Synthesize(instance.Spec{
		Users: users, Scheme: s, Channel: channel.UnitGainRandomPhase, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// fastCfg keeps simulated anneals cheap in tests.
func fastCfg() AnnealConfig {
	return AnnealConfig{SweepsPerMicrosecond: 60}
}

func TestModuleNames(t *testing.T) {
	mods := []ClassicalModule{
		GreedyModule{}, RandomModule{}, SAModule{},
		DetectorModule{Detector: mimo.ZeroForcing{}}, FixedModule{},
	}
	want := []string{"gs", "random", "sa", "zf", "fixed"}
	for i, m := range mods {
		if m.Name() != want[i] {
			t.Fatalf("module %d name %q, want %q", i, m.Name(), want[i])
		}
	}
}

func TestClassicalModulesProduceValidStates(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 4, 3)
	r := rng.New(1)
	mods := []ClassicalModule{
		GreedyModule{}, RandomModule{}, SAModule{Opts: qubo.SAOptions{Sweeps: 100}},
		DetectorModule{Detector: mimo.ZeroForcing{}},
		DetectorModule{Detector: mimo.KBest{K: 4}},
		DetectorModule{Detector: mimo.FCSD{FullExpansion: 2}},
	}
	for _, m := range mods {
		spins, err := m.Initialize(inst.Reduction, r)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(spins) != inst.Reduction.NumSpins() {
			t.Fatalf("%s: %d spins", m.Name(), len(spins))
		}
		for _, sp := range spins {
			if sp != 1 && sp != -1 {
				t.Fatalf("%s: non-spin value %d", m.Name(), sp)
			}
		}
	}
}

func TestFixedModuleValidatesLength(t *testing.T) {
	inst := testInstance(t, modulation.QPSK, 3, 4)
	if _, err := (FixedModule{State: make([]int8, 2)}).Initialize(inst.Reduction, nil); err == nil {
		t.Fatal("wrong-length fixed state accepted")
	}
}

// TestHybridSolvesNoiselessInstance: the full §4.1 prototype must decode
// the transmitted symbols on an easy noiseless instance.
func TestHybridSolvesNoiselessInstance(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 4, 5)
	h := &Hybrid{NumReads: 30, Config: fastCfg()}
	out, err := h.Solve(inst.Reduction, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 30 {
		t.Fatalf("%d samples", len(out.Samples))
	}
	if out.Best.Energy > inst.GroundEnergy+1e-6 {
		t.Fatalf("hybrid best %v above ground %v", out.Best.Energy, inst.GroundEnergy)
	}
	if mimo.SymbolErrors(out.Symbols, inst.Transmitted) != 0 {
		t.Fatalf("hybrid misdecoded: %v vs %v", out.Symbols, inst.Transmitted)
	}
	// Initial state bookkeeping.
	if math.Abs(inst.Reduction.Ising.Energy(out.InitialState)-out.InitialEnergy) > 1e-9 {
		t.Fatal("initial energy inconsistent")
	}
	if out.AnnealTime <= 0 || out.ScheduleDuration <= 0 {
		t.Fatal("timing not reported")
	}
}

// TestHybridNeverWorseThanClassical: the hybrid returns the classical
// candidate when no anneal sample beats it.
func TestHybridNeverWorseThanClassical(t *testing.T) {
	inst := testInstance(t, modulation.QAM64, 3, 11)
	h := &Hybrid{NumReads: 5, Sp: 0.97, Config: fastCfg()} // frozen RA: samples ≈ init
	out, err := h.Solve(inst.Reduction, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if out.Best.Energy > out.InitialEnergy+1e-9 {
		t.Fatalf("hybrid output %v worse than its classical input %v", out.Best.Energy, out.InitialEnergy)
	}
}

func TestForwardSolverRuns(t *testing.T) {
	inst := testInstance(t, modulation.QPSK, 4, 17)
	f := &ForwardSolver{NumReads: 30, Config: fastCfg()}
	out, err := f.Solve(inst.Reduction, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 30 || len(out.Symbols) != 4 {
		t.Fatal("FA output malformed")
	}
	// FA duration: ta + tp = 2 μs with defaults.
	if math.Abs(out.ScheduleDuration-2) > 1e-9 {
		t.Fatalf("FA schedule duration %v", out.ScheduleDuration)
	}
}

func TestForwardReverseSolverRuns(t *testing.T) {
	inst := testInstance(t, modulation.QPSK, 4, 23)
	f := &ForwardReverseSolver{NumReads: 20, Config: fastCfg()}
	out, err := f.Solve(inst.Reduction, rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 20 {
		t.Fatal("FR output malformed")
	}
}

// TestHybridBeatsForwardOnHardInstance is the headline behavioural check:
// on an instance where GS lands near the optimum, GS+RA achieves at least
// the success probability of FA with the same read budget.
func TestHybridBeatsForwardOnHardInstance(t *testing.T) {
	// A 16-QAM 4-user instance (16 spins) is already hard enough for FA
	// at modest sweep budgets.
	inst := testInstance(t, modulation.QAM16, 4, 31)
	reads := 60
	h := &Hybrid{NumReads: reads, Config: fastCfg()}
	f := &ForwardSolver{NumReads: reads, Config: fastCfg()}
	ho, err := h.Solve(inst.Reduction, rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	fo, err := f.Solve(inst.Reduction, rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	tol := 1e-6
	hp := metrics.SuccessProbability(ho.Samples, inst.GroundEnergy, tol)
	fp := metrics.SuccessProbability(fo.Samples, inst.GroundEnergy, tol)
	if hp < fp {
		t.Fatalf("GS+RA p★=%v below FA p★=%v", hp, fp)
	}
	if hp == 0 {
		t.Fatal("GS+RA never found the ground state on an easy instance")
	}
}

func TestPostProcessingImprovesOrMatchesFA(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 4, 41)
	fa := ForwardSolver{NumReads: 20, Config: fastCfg()}
	plain, err := fa.Solve(inst.Reduction, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	pp := &PostProcessing{Forward: fa}
	refined, err := pp.Solve(inst.Reduction, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if refined.Best.Energy > plain.Best.Energy+1e-9 {
		t.Fatalf("post-processing made things worse: %v vs %v", refined.Best.Energy, plain.Best.Energy)
	}
}

func TestCoProcessingRuns(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 4, 47)
	co := &CoProcessing{Rounds: 2, ReadsPerRound: 10, Config: fastCfg()}
	out, err := co.Solve(inst.Reduction, rng.New(53))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 20 {
		t.Fatalf("co-processing drew %d samples", len(out.Samples))
	}
	if out.Best.Energy > inst.GroundEnergy+1.0 {
		t.Fatalf("co-processing best %v far above ground %v", out.Best.Energy, inst.GroundEnergy)
	}
	// Co-processing output is at least a local minimum.
	for i := 0; i < inst.Reduction.NumSpins(); i++ {
		if inst.Reduction.Ising.FlipDelta(out.Best.Spins, i) < -1e-9 {
			t.Fatal("co-processing returned a non-locally-minimal state")
		}
	}
}

func TestSpRangeMatchesPaperGrid(t *testing.T) {
	sps := SpRange()
	if sps[0] != 0.25 {
		t.Fatalf("first sp %v", sps[0])
	}
	if sps[len(sps)-1] != 0.97 {
		t.Fatalf("last sp %v (grid is 0.25..0.99 step 0.04)", sps[len(sps)-1])
	}
	for i := 1; i < len(sps); i++ {
		if math.Abs(sps[i]-sps[i-1]-0.04) > 1e-9 {
			t.Fatalf("grid step %v at %d", sps[i]-sps[i-1], i)
		}
	}
}

func TestSweepSpFindsWorkingWindow(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 3, 59)
	gs := qubo.GreedySearchIsing(inst.Reduction.Ising, qubo.OrderDescending)
	sweep, err := SweepSp(inst.Reduction, gs, inst.GroundEnergy,
		[]float64{0.35, 0.45, 0.55}, 40, 99, fastCfg(), rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 3 {
		t.Fatal("point count wrong")
	}
	best, ok := sweep.BestPoint()
	if !ok {
		t.Fatal("sweep never found the ground state in the mid-sp window")
	}
	if best.PStar <= 0 || math.IsInf(best.TTS, 1) {
		t.Fatalf("best point degenerate: %+v", best)
	}
	// TTS consistency: TTS = duration·ln(0.01)/ln(1−p★), floored.
	want := metrics.TTS(best.Duration, best.PStar, 99)
	if math.Abs(best.TTS-want) > 1e-9 {
		t.Fatal("TTS inconsistent with p★")
	}
}

func TestSweepSpEmptyGridRejected(t *testing.T) {
	inst := testInstance(t, modulation.QPSK, 2, 67)
	if _, err := SweepSp(inst.Reduction, inst.GroundSpins, inst.GroundEnergy, nil, 10, 99, fastCfg(), rng.New(1)); err == nil {
		t.Fatal("empty grid accepted")
	}
}

func TestOptimizeSp(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 3, 71)
	best, init, err := OptimizeSp(inst.Reduction, nil, inst.GroundEnergy, 30, fastCfg(), rng.New(73))
	if err != nil {
		t.Fatal(err)
	}
	if len(init) != inst.Reduction.NumSpins() {
		t.Fatal("init missing")
	}
	if best.Sp < 0.25 || best.Sp > 0.97 {
		t.Fatalf("best sp %v outside grid", best.Sp)
	}
}

// TestHybridOnEmbeddedQPU exercises the full path through Chimera
// embedding (QPU.Chains), and beside it the default QPU, which anneals
// the logical problem.
func TestHybridOnEmbeddedQPU(t *testing.T) {
	inst := testInstance(t, modulation.QPSK, 3, 89) // 12 spins → C_3 region
	for _, chains := range []bool{true, false} {
		name := "logical"
		if chains {
			name = "chains"
		}
		t.Run(name, func(t *testing.T) {
			cfg := fastCfg()
			cfg.QPU = annealer.NewQPU2000Q()
			cfg.QPU.Chains = chains
			h := &Hybrid{NumReads: 15, Config: cfg}
			out, err := h.Solve(inst.Reduction, rng.New(97))
			if err != nil {
				t.Fatal(err)
			}
			if out.Best.Energy > inst.GroundEnergy+2.0 {
				t.Fatalf("%s hybrid best %v far above ground %v", name, out.Best.Energy, inst.GroundEnergy)
			}
		})
	}
}
