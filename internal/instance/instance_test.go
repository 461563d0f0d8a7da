package instance

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/metrics"
	"repro/internal/modulation"
	"repro/internal/qubo"
)

func TestSynthesizeNoiseless(t *testing.T) {
	for _, s := range modulation.Schemes {
		spec := Spec{Users: 4, Scheme: s, Channel: channel.UnitGainRandomPhase, Seed: 1}
		inst, err := Synthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Ground truth: objective at the transmitted symbols is 0, and the
		// Ising energy of the ground spins equals it (within the offset).
		if obj := inst.Problem.Objective(inst.Transmitted); obj > 1e-18 {
			t.Fatalf("%v: objective at truth %v", s, obj)
		}
		if math.Abs(inst.GroundEnergy) > 1e-6 {
			t.Fatalf("%v: ground energy %v, want ≈0", s, inst.GroundEnergy)
		}
		if want := spec.Users * s.BitsPerSymbol(); len(inst.GroundSpins) != want {
			t.Fatalf("%v: %d ground spins, want %d", s, len(inst.GroundSpins), want)
		}
		// Optimal == transmitted in the noiseless setting.
		for i := range inst.Optimal {
			if inst.Optimal[i] != inst.Transmitted[i] {
				t.Fatalf("%v: optimal differs from transmitted", s)
			}
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	spec := Spec{Users: 4, Scheme: modulation.QAM16, Seed: 42}
	a, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Problem.Y {
		if a.Problem.Y[i] != b.Problem.Y[i] {
			t.Fatal("synthesis not deterministic")
		}
	}
	spec.Seed = 43
	c, _ := Synthesize(spec)
	same := true
	for i := range a.Problem.Y {
		if a.Problem.Y[i] != c.Problem.Y[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical instances")
	}
}

// TestNoisyGroundTruthIsMLOptimum: with AWGN, the stored ground state must
// be the exhaustive Ising optimum.
func TestNoisyGroundTruthIsMLOptimum(t *testing.T) {
	spec := Spec{Users: 3, Scheme: modulation.QPSK, NoiseVariance: 0.8, Seed: 7}
	inst, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	ground, err := qubo.ExhaustiveIsing(inst.Reduction.Ising)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inst.GroundEnergy-ground.Energy) > 1e-8 {
		t.Fatalf("stored ground %v, exhaustive %v", inst.GroundEnergy, ground.Energy)
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := Synthesize(Spec{Users: 0, Scheme: modulation.BPSK}); err == nil {
		t.Fatal("zero users accepted")
	}
	if _, err := Synthesize(Spec{Users: 2, Scheme: modulation.BPSK, NoiseVariance: -1}); err == nil {
		t.Fatal("negative noise accepted")
	}
}

func TestCorpus(t *testing.T) {
	spec := Spec{Users: 2, Scheme: modulation.QPSK}
	insts, err := Corpus(spec, 99, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 5 {
		t.Fatalf("corpus size %d", len(insts))
	}
	// Instances differ.
	if insts[0].Problem.Y[0] == insts[1].Problem.Y[0] {
		t.Fatal("corpus instances identical")
	}
	// Deterministic in base seed.
	again, _ := Corpus(spec, 99, 5)
	for i := range insts {
		if insts[i].Problem.Y[0] != again[i].Problem.Y[0] {
			t.Fatal("corpus not deterministic")
		}
	}
	if _, err := Corpus(spec, 1, 0); err == nil {
		t.Fatal("empty corpus accepted")
	}
}

func TestVariableBudgetUsers(t *testing.T) {
	cases := []struct {
		s    modulation.Scheme
		vars int
		want int
		err  bool
	}{
		{modulation.BPSK, 36, 36, false},
		{modulation.QPSK, 36, 18, false},
		{modulation.QAM16, 36, 9, false},
		{modulation.QAM64, 36, 6, false},
		{modulation.QAM16, 30, 0, true}, // 30 not divisible by 4
		{modulation.BPSK, 0, 0, true},
	}
	for _, c := range cases {
		got, err := VariableBudgetUsers(c.s, c.vars)
		if c.err != (err != nil) {
			t.Fatalf("%v/%d: err %v", c.s, c.vars, err)
		}
		if !c.err && got != c.want {
			t.Fatalf("%v/%d: users %d, want %d", c.s, c.vars, got, c.want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	spec := Spec{Users: 3, Scheme: modulation.QAM16, Channel: channel.UnitGainRandomPhase, Seed: 11}
	inst, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spec.Users != 3 || back.Spec.Scheme != modulation.QAM16 || back.Spec.Seed != 11 {
		t.Fatalf("spec lost: %+v", back.Spec)
	}
	for i := range inst.Problem.Y {
		if inst.Problem.Y[i] != back.Problem.Y[i] {
			t.Fatal("y lost precision")
		}
	}
	for r := 0; r < inst.Problem.H.Rows; r++ {
		for c := 0; c < inst.Problem.H.Cols; c++ {
			if inst.Problem.H.At(r, c) != back.Problem.H.At(r, c) {
				t.Fatal("H lost precision")
			}
		}
	}
	// Recomputed ground truth matches.
	if math.Abs(inst.GroundEnergy-back.GroundEnergy) > 1e-9 {
		t.Fatalf("ground energy %v vs %v", inst.GroundEnergy, back.GroundEnergy)
	}
	// Ising forms agree on a probe state.
	probe := make([]int8, inst.Reduction.NumSpins())
	for i := range probe {
		probe[i] = 1
	}
	if math.Abs(inst.Reduction.Ising.Energy(probe)-back.Reduction.Ising.Energy(probe)) > 1e-9 {
		t.Fatal("reduced Ising differs after round trip")
	}
}

func TestJSONRejectsMalformed(t *testing.T) {
	var in Instance
	if err := json.Unmarshal([]byte(`{"scheme":"nope","h":[],"y":[]}`), &in); err == nil {
		t.Fatal("bad scheme accepted")
	}
	if err := json.Unmarshal([]byte(`{"scheme":"bpsk","users":1,"h":[[[1,0]]],"y":[[1,0],[2,0]]}`), &in); err == nil {
		t.Fatal("mismatched y length accepted")
	}
}

// TestDeltaEOfGreedyInitIsSmall reflects §4.3: GS solutions typically land
// at ΔE_IS% ≤ 10% on the paper's instances.
func TestDeltaEOfGreedyInitIsSmall(t *testing.T) {
	insts, err := Corpus(Spec{Users: 8, Scheme: modulation.QAM16}, 123, 10)
	if err != nil {
		t.Fatal(err)
	}
	within := 0
	for _, inst := range insts {
		gs := qubo.GreedySearchIsing(inst.Reduction.Ising, qubo.OrderDescending)
		d := metrics.DeltaEForIsing(inst.Reduction.Ising, inst.Reduction.Ising.Energy(gs), inst.GroundEnergy)
		if d < 0 {
			t.Fatalf("ΔE%% below zero: %v", d)
		}
		if d <= 10 {
			within++
		}
	}
	if within < 7 {
		t.Fatalf("greedy ΔE_IS%% ≤ 10%% on only %d/10 instances", within)
	}
}

func TestSynthesizeCorrelated(t *testing.T) {
	spec := Spec{Users: 4, Scheme: modulation.QPSK, Channel: channel.Rayleigh, Correlation: 0.6, Seed: 3}
	inst, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inst.GroundEnergy) > 1e-6 {
		t.Fatalf("noiseless correlated ground energy %v", inst.GroundEnergy)
	}
	// Correlation changes the channel relative to the plain draw.
	plain, _ := Synthesize(Spec{Users: 4, Scheme: modulation.QPSK, Channel: channel.Rayleigh, Seed: 3})
	same := true
	for i := range inst.Problem.H.Data {
		if inst.Problem.H.Data[i] != plain.Problem.H.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("correlation had no effect on the channel")
	}
}

func TestSynthesizeCorrelationValidation(t *testing.T) {
	if _, err := Synthesize(Spec{Users: 2, Scheme: modulation.BPSK, Correlation: 0.5}); err == nil {
		t.Fatal("correlation with unit-gain model accepted")
	}
	if _, err := Synthesize(Spec{Users: 2, Scheme: modulation.BPSK, Channel: channel.Rayleigh, Correlation: 1.2}); err == nil {
		t.Fatal("rho > 1 accepted")
	}
}

// TestSynthesizeMassiveMIMO: more antennas than users (a massive-MIMO
// base station); the reduction and ground truth remain exact.
func TestSynthesizeMassiveMIMO(t *testing.T) {
	spec := Spec{Users: 4, Antennas: 12, Scheme: modulation.QAM16, Channel: channel.Rayleigh, Seed: 77}
	inst, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Problem.H.Rows != 12 || inst.Problem.Nt() != 4 {
		t.Fatalf("channel is %dx%d", inst.Problem.H.Rows, inst.Problem.Nt())
	}
	if math.Abs(inst.GroundEnergy) > 1e-6 {
		t.Fatalf("ground energy %v", inst.GroundEnergy)
	}
	if inst.Reduction.NumSpins() != 16 {
		t.Fatalf("%d spins", inst.Reduction.NumSpins())
	}
	// The Ising form still equals the objective on random candidates.
	g, err := qubo.ExhaustiveIsing(inst.Reduction.Ising)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Energy-inst.GroundEnergy) > 1e-6 {
		t.Fatalf("exhaustive ground %v vs stored %v", g.Energy, inst.GroundEnergy)
	}
}

func TestSynthesizeAntennaValidation(t *testing.T) {
	if _, err := Synthesize(Spec{Users: 4, Antennas: 2, Scheme: modulation.BPSK}); err == nil {
		t.Fatal("fewer antennas than users accepted")
	}
	if _, err := Synthesize(Spec{Users: 4, Antennas: -1, Scheme: modulation.BPSK}); err == nil {
		t.Fatal("negative antennas accepted")
	}
}
