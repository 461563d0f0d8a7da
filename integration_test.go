package repro_test

// End-to-end integration tests for the flows README.md promises,
// crossing every layer: synthesis → reduction → solvers → metrics.

import (
	"math"
	"testing"

	"repro/internal/annealer"
	"repro/internal/channel"
	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/qaoa"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// TestQuickstartFlow is the README quickstart, asserted.
func TestQuickstartFlow(t *testing.T) {
	inst, err := instance.Synthesize(instance.Spec{
		Users: 8, Scheme: modulation.QAM16,
		Channel: channel.UnitGainRandomPhase, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&core.Hybrid{NumReads: 200}).Solve(inst.Reduction, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if mimo.SymbolErrors(out.Symbols, inst.Transmitted) != 0 {
		t.Fatal("quickstart flow misdecoded")
	}
	d := metrics.DeltaEForIsing(inst.Reduction.Ising, out.Best.Energy, inst.GroundEnergy)
	if d > 1e-6 {
		t.Fatalf("quickstart best ΔE%% = %v", d)
	}
}

// TestSolverZooConsistency: every solver type produces a valid symbol
// vector on the same instance, and none beats the exact ML objective.
func TestSolverZooConsistency(t *testing.T) {
	inst, err := instance.Synthesize(instance.Spec{
		Users: 4, Scheme: modulation.QAM16, NoiseVariance: 0.4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	mlObjective := inst.Problem.Objective(inst.Optimal)
	red := inst.Reduction
	r := rng.New(11)
	solvers := map[string]interface {
		Solve(*mimo.Reduction, *rng.Source) (*core.Outcome, error)
	}{
		"gs+ra":      &core.Hybrid{NumReads: 60},
		"fa":         &core.ForwardSolver{NumReads: 60},
		"fr":         &core.ForwardReverseSolver{NumReads: 40},
		"fa+descent": &core.PostProcessing{Forward: core.ForwardSolver{NumReads: 40}},
		"co":         &core.CoProcessing{Rounds: 2, ReadsPerRound: 20},
		"decomp":     &core.Decomposition{BlockSize: 8, Rounds: 2, ReadsPerBlock: 20},
		"persist":    &core.SamplePersistence{Rounds: 2, ReadsPerRound: 30},
	}
	for name, s := range solvers {
		out, err := s.Solve(red, r.SplitString(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out.Symbols) != 4 {
			t.Fatalf("%s: %d symbols", name, len(out.Symbols))
		}
		obj := inst.Problem.Objective(out.Symbols)
		if obj < mlObjective-1e-9 {
			t.Fatalf("%s: objective %v below the exact ML optimum %v", name, obj, mlObjective)
		}
	}
}

// TestScheduleSemanticsMatchPaper: the three schedule durations under the
// paper's §4.2 parameters (t_a = t_p = 1 μs).
func TestScheduleSemanticsMatchPaper(t *testing.T) {
	fa, err := annealer.Forward(1, 0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fa.Duration()-2.0) > 1e-12 { // t_a + t_p
		t.Fatalf("FA duration %v", fa.Duration())
	}
	ra, err := annealer.Reverse(0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ra.Duration()-(2*(1-0.41)+1)) > 1e-12 { // 2(1−sp) + t_p
		t.Fatalf("RA duration %v", ra.Duration())
	}
	fr, err := annealer.ForwardReverse(0.7, 0.41, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*0.7 - 2*0.41 + 1 + 1 // 2cp − 2sp + tp + ta
	if math.Abs(fr.Duration()-want) > 1e-12 {
		t.Fatalf("FR duration %v, want %v", fr.Duration(), want)
	}
}

// TestCodedLinkRoundTrip: encode → binary-modulate → noiseless channel →
// hybrid detect → LLRs → soft Viterbi recovers the packet exactly.
func TestCodedLinkRoundTrip(t *testing.T) {
	code := coding.NewConvCode75()
	scheme := modulation.QAM16
	const users = 4
	bitsPerUse := users * scheme.BitsPerSymbol()
	r := rng.New(33)
	info := make([]int8, 30)
	for i := range info {
		if r.Bool() {
			info[i] = 1
		}
	}
	coded, err := code.Encode(info)
	if err != nil {
		t.Fatal(err)
	}
	padded := append([]int8(nil), coded...)
	for len(padded)%bitsPerUse != 0 {
		padded = append(padded, 0)
	}
	var llrs []float64
	for use := 0; use*bitsPerUse < len(padded); use++ {
		seg := padded[use*bitsPerUse : (use+1)*bitsPerUse]
		x := make([]complex128, users)
		for u := 0; u < users; u++ {
			x[u], err = scheme.ModulateBinary(seg[u*scheme.BitsPerSymbol() : (u+1)*scheme.BitsPerSymbol()])
			if err != nil {
				t.Fatal(err)
			}
		}
		ur := r.Split(uint64(use))
		h := channel.Draw(channel.UnitGainRandomPhase, ur.SplitString("h"), users, users)
		y := channel.Transmit(ur.SplitString("n"), h, x, 0)
		red, err := mimo.Reduce(&mimo.Problem{H: h, Y: y, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		out, err := (&core.Ensemble{NumReads: 80}).Solve(red, ur.SplitString("hy"))
		if err != nil {
			t.Fatal(err)
		}
		spinLLRs := out.FusedLLRs
		for u := 0; u < users; u++ {
			for b := 0; b < scheme.BitsPerSymbol(); b++ {
				llrs = append(llrs, spinLLRs[mimo.BitLLR{User: u, Bit: b}.SpinIndex(red)])
			}
		}
	}
	decoded, err := code.DecodeSoft(llrs[:len(coded)])
	if err != nil {
		t.Fatal(err)
	}
	if coding.BitErrors(info, decoded) != 0 {
		t.Fatal("noiseless coded link did not round-trip")
	}
}

// TestQAOAAgreesWithExhaustive: the gate-model path and the qubo
// exhaustive solver agree on the ground energy of a reduced instance.
func TestQAOAAgreesWithExhaustive(t *testing.T) {
	inst, err := instance.Synthesize(instance.Spec{Users: 4, Scheme: modulation.QPSK, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	circ, err := qaoa.Compile(inst.Reduction.Ising)
	if err != nil {
		t.Fatal(err)
	}
	g, err := qubo.ExhaustiveIsing(inst.Reduction.Ising)
	if err != nil {
		t.Fatal(err)
	}
	ground := math.Inf(1)
	for z := 0; z < 1<<len(g.Spins); z++ {
		ground = math.Min(ground, circ.EnergyOf(z))
	}
	if math.Abs(ground-g.Energy) > 1e-9 {
		t.Fatalf("QAOA spectrum ground %v vs exhaustive %v", ground, g.Energy)
	}
}
