package mimo

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/qubo"
	"repro/internal/rng"
)

func sample(energy float64, spins ...int8) qubo.Sample {
	return qubo.Sample{Spins: spins, Energy: energy}
}

// TestFuseLLRsEmpty: an empty read set — no arms, empty arms, or arms
// whose every read carries a non-finite energy — is an error, not a
// silently-confident LLR vector.
func TestFuseLLRsEmpty(t *testing.T) {
	cases := [][][]qubo.Sample{
		nil,
		{},
		{{}, {}},
		{{sample(math.NaN(), 1, -1)}, {sample(math.Inf(1), 1, 1), sample(math.Inf(-1), -1, -1)}},
	}
	for i, arms := range cases {
		if _, err := FuseLLRs(arms, 0, 0); err == nil {
			t.Fatalf("case %d: empty fusion accepted", i)
		}
	}
}

// TestFuseLLRsAllIdenticalReads: a degenerate ensemble (every read the
// same state, zero energy spread) fuses to saturated LLRs at the clamp,
// signed by the read's spins — not NaN from a 0/0 normalization.
func TestFuseLLRsAllIdenticalReads(t *testing.T) {
	arms := [][]qubo.Sample{
		{sample(-3, 1, -1), sample(-3, 1, -1)},
		{sample(-3, 1, -1)},
	}
	llrs, err := FuseLLRs(arms, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(llrs, []float64{50, -50}) {
		t.Fatalf("identical-read fusion gave %v, want saturated ±50", llrs)
	}
	llrs, err = FuseLLRs(arms, 0, 7.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(llrs, []float64{7.5, -7.5}) {
		t.Fatalf("clamp override ignored: %v", llrs)
	}
}

// TestFuseLLRsDropsNonFinite: NaN/±Inf energies are dropped like
// metrics.Histogram drops unbinnable observations — a single poisoned
// read must not capture (−Inf), erase (+Inf), or NaN-poison the fusion.
func TestFuseLLRsDropsNonFinite(t *testing.T) {
	clean := [][]qubo.Sample{{sample(-2, 1, 1), sample(-1, 1, -1), sample(0, -1, -1)}}
	want, err := FuseLLRs(clean, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := [][]qubo.Sample{
		{sample(math.NaN(), -1, 1), sample(-2, 1, 1), sample(math.Inf(-1), -1, 1)},
		{sample(-1, 1, -1), sample(math.Inf(1), -1, 1), sample(0, -1, -1)},
	}
	got, err := FuseLLRs(poisoned, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("poisoned fusion %v differs from clean %v", got, want)
	}
	for i, l := range got {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("LLR %d is non-finite: %g", i, l)
		}
	}
}

// TestFuseLLRsSignsFollowBoltzmann: lower-energy states dominate the
// weighting, so each spin's LLR sign follows the low-energy consensus.
func TestFuseLLRsSignsFollowBoltzmann(t *testing.T) {
	arms := [][]qubo.Sample{
		{sample(-10, 1, -1), sample(-10, 1, -1), sample(0, -1, 1)},
	}
	llrs, err := FuseLLRs(arms, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if llrs[0] <= 0 || llrs[1] >= 0 {
		t.Fatalf("LLR signs %v contradict the low-energy reads (+1, −1)", llrs)
	}
	// An explicit sharper beta pushes both further toward the consensus.
	sharp, err := FuseLLRs(arms, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sharp[0] <= llrs[0] || sharp[1] >= llrs[1] {
		t.Fatalf("beta=10 fusion %v not sharper than auto %v", sharp, llrs)
	}
}

// TestFuseLLRsUnanimousClamps: reads that agree on every spin leave one
// side of each sum empty, so the LLRs saturate at the clamp even when the
// reads' energies differ.
func TestFuseLLRsUnanimousClamps(t *testing.T) {
	arms := [][]qubo.Sample{{sample(-3, 1, -1), sample(-2, 1, -1)}}
	llrs, err := FuseLLRs(arms, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(llrs, []float64{10, -10}) {
		t.Fatalf("unanimous LLRs = %v, want ±10", llrs)
	}
}

// TestFuseLLRsWeighting: a low-energy read dominates a high-energy
// disagreeing one, more so at larger beta, with the exact Boltzmann value.
func TestFuseLLRsWeighting(t *testing.T) {
	arms := [][]qubo.Sample{{
		sample(-5, 1),  // good read says +1
		sample(-1, -1), // bad read says −1
	}}
	weak, _ := FuseLLRs(arms, 0.1, 100)
	strong, _ := FuseLLRs(arms, 2, 100)
	if weak[0] <= 0 || strong[0] <= 0 {
		t.Fatalf("LLR should favour the low-energy read: %v %v", weak, strong)
	}
	if strong[0] <= weak[0] {
		t.Fatalf("larger beta should sharpen the LLR: %v vs %v", strong[0], weak[0])
	}
	// beta=2: log(e^0) − log(e^{−2·4}) = 8.
	if math.Abs(strong[0]-8) > 1e-9 {
		t.Fatalf("strong LLR = %v, want 8", strong[0])
	}
}

// TestFuseLLRsAutoBeta: beta ≤ 0 picks 4 / (E_max − E_min), so a spread
// of 8 gives beta 0.5 and an LLR of exactly 0.5·8 = 4.
func TestFuseLLRsAutoBeta(t *testing.T) {
	llrs, err := FuseLLRs([][]qubo.Sample{{sample(0, 1), sample(8, -1)}}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(llrs[0]-4) > 1e-12 {
		t.Fatalf("auto-beta LLR = %v, want 4", llrs[0])
	}
}

// TestFuseLLRsMixedSpinLengthsRejected: arms must agree on the problem.
func TestFuseLLRsMixedSpinLengthsRejected(t *testing.T) {
	arms := [][]qubo.Sample{{sample(-1, 1, -1)}, {sample(-1, 1, -1, 1)}}
	if _, err := FuseLLRs(arms, 0, 0); err == nil {
		t.Fatal("mixed spin lengths accepted")
	}
}

// TestFuseLLRsPermutationInvariant: fusion is BITWISE invariant in arm
// order and in how the same read multiset is partitioned into arms —
// the canonical accumulation order makes float summation order a pure
// function of the pooled reads.
func TestFuseLLRsPermutationInvariant(t *testing.T) {
	r := rng.New(41)
	var reads []qubo.Sample
	for i := 0; i < 60; i++ {
		spins := make([]int8, 6)
		for j := range spins {
			spins[j] = r.Spin()
		}
		reads = append(reads, qubo.Sample{Spins: spins, Energy: math.Round(r.NormFloat64()*4) / 2})
	}
	baseline, err := FuseLLRs([][]qubo.Sample{reads}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		shuffled := append([]qubo.Sample(nil), reads...)
		r.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		// Random partition into 1–6 arms.
		narms := 1 + r.Intn(6)
		arms := make([][]qubo.Sample, narms)
		for _, s := range shuffled {
			a := r.Intn(narms)
			arms[a] = append(arms[a], s)
		}
		got, err := FuseLLRs(arms, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(baseline, got) {
			t.Fatalf("trial %d: partition changed fusion bytes: %v vs %v", trial, got, baseline)
		}
	}
}
