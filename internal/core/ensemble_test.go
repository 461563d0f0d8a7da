package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/annealer"
	"repro/internal/modulation"
	"repro/internal/rng"
)

// TestPlanArmsExactlyOnce: the arm plan is the full K×G grid with every
// (candidate, s_p) pair exactly once, in canonical candidate-major
// order, and arm 0 is always the single-RA anchor (0, 0).
func TestPlanArmsExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ k, g int }{{1, 1}, {1, 3}, {4, 1}, {3, 3}, {16, 5}, {MaxEnsembleK, MaxSpGridSize}} {
		arms := PlanArms(tc.k, tc.g)
		if len(arms) != tc.k*tc.g {
			t.Fatalf("PlanArms(%d,%d): %d arms, want %d", tc.k, tc.g, len(arms), tc.k*tc.g)
		}
		if arms[0] != (EnsembleArm{}) {
			t.Fatalf("PlanArms(%d,%d): arm 0 is %+v, want the (0,0) anchor", tc.k, tc.g, arms[0])
		}
		seen := make(map[EnsembleArm]bool, len(arms))
		for i, a := range arms {
			if a.Candidate < 0 || a.Candidate >= tc.k || a.SpIndex < 0 || a.SpIndex >= tc.g {
				t.Fatalf("arm %d out of grid: %+v", i, a)
			}
			if seen[a] {
				t.Fatalf("PlanArms(%d,%d): pair %+v planned twice", tc.k, tc.g, a)
			}
			seen[a] = true
			if want := (EnsembleArm{Candidate: i / tc.g, SpIndex: i % tc.g}); a != want {
				t.Fatalf("arm %d is %+v, want candidate-major %+v", i, a, want)
			}
		}
	}
	if PlanArms(0, 3) != nil || PlanArms(3, 0) != nil {
		t.Fatal("degenerate grid did not plan empty")
	}
}

func TestParseSpGrid(t *testing.T) {
	grid, err := ParseSpGrid(" 0.37, 0.45 ,0.53 ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grid, []float64{0.37, 0.45, 0.53}) {
		t.Fatalf("parsed grid %v", grid)
	}
	for _, bad := range []string{"", "0.5,zebra", "0", "1", "-0.2", "0.4,0.4", "NaN"} {
		if _, err := ParseSpGrid(bad); err == nil {
			t.Fatalf("grid %q accepted", bad)
		}
	}
	long := strings.Repeat("0.1,", MaxSpGridSize) + "0.9"
	if _, err := ParseSpGrid(long); err == nil {
		t.Fatal("oversized grid accepted")
	}
}

// TestTopKCandidatesDeterministic: same (problem, k, seed) → identical
// candidate sets; candidate 0 is the GreedyModule default state; every
// candidate is a valid spin vector.
func TestTopKCandidatesDeterministic(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 4, 9)
	red := inst.Reduction
	a, err := TopKCandidates(red, 4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := TopKCandidates(red, 4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("candidate pool differs across identical calls")
	}
	if len(a) != 4 {
		t.Fatalf("%d candidates, want 4", len(a))
	}
	base, err := GreedyModule{}.Initialize(red, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a[0], base) {
		t.Fatal("candidate 0 is not the default greedy state")
	}
	for i, c := range a {
		if len(c) != red.NumSpins() {
			t.Fatalf("candidate %d has %d spins", i, len(c))
		}
		for _, sp := range c {
			if sp != 1 && sp != -1 {
				t.Fatalf("candidate %d has non-spin value %d", i, sp)
			}
		}
	}
	if _, err := TopKCandidates(red, 0, rng.New(1)); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := TopKCandidates(red, MaxEnsembleK+1, rng.New(1)); err == nil {
		t.Fatal("oversized k accepted")
	}
}

// marshalOutcome renders the shared Outcome fields for byte comparison.
// (%+v instead of JSON: Symbols is []complex128, which encoding/json
// rejects; %+v prints pointer targets by value, so the rendering is a
// pure function of the outcome's contents.)
func marshalOutcome(t *testing.T, out *Outcome) []byte {
	t.Helper()
	return []byte(fmt.Sprintf("%+v", *out))
}

// TestEnsembleK1ByteIdenticalToHybrid: the collapse contract — a K=1
// ensemble on the trivial grid reproduces Hybrid.Solve byte for byte
// from the same root stream, on both the healthy and the faulted path.
func TestEnsembleK1ByteIdenticalToHybrid(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 4, 11)
	cases := []struct {
		name string
		cfg  AnnealConfig
	}{
		{"healthy", fastCfg()},
		{"programming-fault", func() AnnealConfig {
			cfg := fastCfg()
			cfg.Faults = annealer.FaultModel{ProgrammingFailureRate: 1}
			return cfg
		}()},
		{"soft-faults", func() AnnealConfig {
			cfg := fastCfg()
			cfg.Faults = annealer.FaultModel{ReadTimeoutRate: 0.3, ChainBreakStormRate: 0.2, StormFlipFraction: 0.4}
			return cfg
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := &Hybrid{NumReads: 40, Config: tc.cfg}
			want, werr := h.Solve(inst.Reduction, rng.New(77))
			e := &Ensemble{NumReads: 40, Config: tc.cfg}
			got, err := e.Solve(inst.Reduction, rng.New(77))
			if werr != nil || err != nil {
				if werr == nil || err == nil || werr.Error() != err.Error() {
					t.Fatalf("K=1 ensemble error %v, Hybrid error %v", err, werr)
				}
				return
			}
			wb, gb := marshalOutcome(t, want), marshalOutcome(t, &got.Outcome)
			if !bytes.Equal(wb, gb) {
				t.Fatalf("K=1 ensemble diverged from Hybrid:\n hybrid: %s\n ensemble: %s", wb, gb)
			}
			if !reflect.DeepEqual(*want, got.Outcome) {
				t.Fatal("K=1 ensemble outcome not deeply equal to Hybrid outcome")
			}
			if len(got.Arms) != 1 {
				t.Fatalf("%d arms for K=1", len(got.Arms))
			}
		})
	}
}

// TestEnsembleK1SoftMatchesGroundSigns: on an easy noiseless instance
// the single-arm ensemble's soft output (mimo.FuseLLRs over one arm's
// reads) must agree in sign with the ground state on most spins.
func TestEnsembleK1SoftMatchesGroundSigns(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 4, 73)
	out, err := (&Ensemble{NumReads: 60, Config: fastCfg()}).Solve(inst.Reduction, rng.New(75))
	if err != nil {
		t.Fatal(err)
	}
	llrs := out.FusedLLRs
	if len(llrs) != inst.Reduction.NumSpins() {
		t.Fatalf("%d LLRs", len(llrs))
	}
	if out.Best.Energy > inst.GroundEnergy+1e-6 {
		t.Skip("single arm missed the optimum on this draw; soft-sign check not meaningful")
	}
	agree := 0
	for i, l := range llrs {
		if (l > 0) == (inst.GroundSpins[i] > 0) {
			agree++
		}
	}
	if agree < len(llrs)*3/4 {
		t.Fatalf("soft output agrees with ground on only %d/%d spins", agree, len(llrs))
	}
}

// TestEnsembleZeroValueMatchesHybridZeroValue: defaults line up field
// for field, so flag-free configs collapse too.
func TestEnsembleZeroValueMatchesHybridZeroValue(t *testing.T) {
	e := (&Ensemble{}).withDefaults()
	h := (&Hybrid{}).withDefaults()
	if e.K != 1 || len(e.SpGrid) != 1 || e.SpGrid[0] != h.Sp || h.Sp != RASp || e.NumReads != h.NumReads {
		t.Fatalf("ensemble defaults %+v do not collapse onto hybrid defaults Sp=%g reads=%d", e, h.Sp, h.NumReads)
	}
}

// TestEnsembleMultiArmSolve: a K×G ensemble runs every planned arm,
// pools their reads, fuses soft output over every spin, and never
// answers worse than its best arm or candidate.
func TestEnsembleMultiArmSolve(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 4, 13)
	e := &Ensemble{K: 3, SpGrid: []float64{0.37, 0.45, 0.53}, NumReads: 25, Config: fastCfg()}
	out, err := e.Solve(inst.Reduction, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Arms) != 9 {
		t.Fatalf("%d arms, want 9", len(out.Arms))
	}
	if len(out.Samples) != 9*25 {
		t.Fatalf("%d pooled samples, want %d", len(out.Samples), 9*25)
	}
	if len(out.FusedLLRs) != inst.Reduction.NumSpins() {
		t.Fatalf("%d fused LLRs for %d spins", len(out.FusedLLRs), inst.Reduction.NumSpins())
	}
	for i, ao := range out.Arms {
		if want := (EnsembleArm{Candidate: i / 3, SpIndex: i % 3}); ao.Arm != want {
			t.Fatalf("arm %d ran %+v, want %+v", i, ao.Arm, want)
		}
		if ao.Sp != e.SpGrid[ao.Arm.SpIndex] {
			t.Fatalf("arm %d sp %g", i, ao.Sp)
		}
		if out.Best.Energy > ao.Best.Energy {
			t.Fatalf("frame best %g worse than arm %d best %g", out.Best.Energy, i, ao.Best.Energy)
		}
		if out.Best.Energy > ao.InitialEnergy {
			t.Fatalf("frame best %g worse than candidate %d energy %g", out.Best.Energy, i, ao.InitialEnergy)
		}
	}
	// Determinism at the solver level: same root stream, same bytes.
	again, err := e.Solve(inst.Reduction, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalOutcome(t, &out.Outcome), marshalOutcome(t, &again.Outcome)) {
		t.Fatal("multi-arm solve is not deterministic")
	}
	if !reflect.DeepEqual(out.FusedLLRs, again.FusedLLRs) {
		t.Fatal("fused LLRs are not deterministic")
	}
}

// TestEnsembleAllArmsFaulted: with every arm lost to programming faults
// the typed device fault surfaces; the ensemble never answers without
// reads.
func TestEnsembleAllArmsFaulted(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 4, 15)
	cfg := fastCfg()
	cfg.Faults = annealer.FaultModel{ProgrammingFailureRate: 1}
	e := &Ensemble{K: 2, SpGrid: []float64{0.37, 0.45}, NumReads: 10, Config: cfg}
	out, err := e.Solve(inst.Reduction, rng.New(3))
	if fe, ok := annealer.AsFault(err); !ok || fe.Kind != annealer.FaultProgramming {
		t.Fatalf("all-faulted ensemble returned %v, %v; want a programming fault", out, err)
	}
}

// TestEnsembleRejectsBadGrids: validation catches out-of-range and
// duplicated s_p entries before any device work.
func TestEnsembleRejectsBadGrids(t *testing.T) {
	inst := testInstance(t, modulation.QPSK, 2, 4)
	for _, grid := range [][]float64{{0}, {1}, {0.4, 0.4}, {-0.1}, {0.3, 1.5}} {
		e := &Ensemble{SpGrid: grid, NumReads: 5, Config: fastCfg()}
		if _, err := e.Solve(inst.Reduction, rng.New(1)); err == nil {
			t.Fatalf("grid %v accepted", grid)
		}
	}
}
