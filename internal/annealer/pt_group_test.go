package annealer

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// checkPTGroup runs one PT group of width w on is and asserts every
// lane's sample equals the one-read oracle's and every rs[j] keeps the
// state it came in with, as qubo.ParallelTempering leaves it.
func checkPTGroup(t *testing.T, label string, is *qubo.Ising, w int, opts qubo.PTOptions, seed uint64) {
	t.Helper()
	root := rng.New(seed)
	want := make([]qubo.Sample, w)
	wantR := make([]*rng.Source, w)
	gotR := make([]*rng.Source, w)
	for j := 0; j < w; j++ {
		wantR[j], gotR[j] = root.Split(uint64(j)), root.Split(uint64(j))
		want[j] = qubo.ParallelTempering(is, wantR[j], opts)
	}
	got := make([]qubo.Sample, w)
	ParallelTemperingGroup(is, gotR, opts, got)
	for j := range got {
		if !reflect.DeepEqual(got[j], want[j]) {
			t.Fatalf("%s: lane %d of %d: group %v/%v, one-read %v/%v", label, j, w,
				got[j].Spins, got[j].Energy, want[j].Spins, want[j].Energy)
		}
	}
	for j := range gotR {
		if *gotR[j] != *root.Split(uint64(j)) {
			t.Fatalf("%s: lane %d: the group advanced rs[%d]", label, j, j)
		}
	}
}

// ptBattery is the PT equivalence battery shared by the SIMD and the
// forced-scalar runs: sizes on both sides of the 64-spin bound, swap
// intervals 1, 3 and 5, group widths 1, 3 and 8, ladders of 2 to 8
// rungs, three coupling scales with exact-zero couplings, and real
// detection reductions.
func ptBattery(t *testing.T, tag string) {
	r := rng.New(0x97)
	ladders := []qubo.PTOptions{
		{Replicas: 4, Sweeps: 40, BetaMin: 0.1, BetaMax: 10},
		{Replicas: 2, Sweeps: 25, BetaMin: 0.5, BetaMax: 40},
		{Replicas: 8, Sweeps: 12},
	}
	for _, n := range []int{1, 2, 5, 6, 16, 32, 61, 64, 65} {
		for si, scale := range []float64{0.3, 2, 20} {
			is := saCouplingIsing(r, n, scale)
			for _, swap := range []int{1, 3, 5} {
				for wi, w := range []int{1, 3, 8} {
					opts := ladders[(si+wi+swap)%len(ladders)]
					opts.SwapInterval = swap
					label := fmt.Sprintf("%s n=%d scale=%g opts=%+v w=%d", tag, n, scale, opts, w)
					checkPTGroup(t, label, is, w, opts, r.Uint64())
				}
			}
		}
	}
	// Zero fields and ±1 couplings: energies are exact integers, so the
	// replicas' starting energies and later bests tie often, pinning the
	// strict best rule and the last-replica start of the best.
	for _, n := range []int{6, 16} {
		is := qubo.NewIsing(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.5 {
					is.SetCoupling(i, j, float64(2*int(r.Uint64()%2)-1))
				}
			}
		}
		checkPTGroup(t, fmt.Sprintf("%s ties n=%d", tag, n), is, lockstepWidth, qubo.PTOptions{Replicas: 6, Sweeps: 30, SwapInterval: 2}, r.Uint64())
	}
	// A flat model: every state has energy 0, no flip is ever a strict
	// new best, so each lane must return its last replica's start.
	checkPTGroup(t, tag+" flat", qubo.NewIsing(5), lockstepWidth, qubo.PTOptions{Replicas: 3, Sweeps: 4}, r.Uint64())
	// The serving options (and the qubo defaults, once) on real
	// reductions.
	serving := qubo.PTOptions{Replicas: 4, Sweeps: 200, BetaMin: 0.1, BetaMax: 10, SwapInterval: 5}
	for i, is := range saReductions(t, 12) {
		opts := serving
		if i == 0 {
			opts = qubo.PTOptions{}
		}
		checkPTGroup(t, fmt.Sprintf("%s reduction %d", tag, i), is, []int{1, 3, 8}[i%3], opts, r.Uint64())
	}
}

// TestPTGroupMatchesOneRead is the lockstep PT group's equivalence
// property: every lane reproduces qubo.ParallelTempering (the one-read
// path and oracle) bit for bit, and leaves its rs[j] untouched.
func TestPTGroupMatchesOneRead(t *testing.T) {
	ptBattery(t, "simd")
}

// TestPTGroupScalarMatchesSIMD forces the scalar replay step on every
// call: the group must still reproduce the oracle.
func TestPTGroupScalarMatchesSIMD(t *testing.T) {
	if !hasBatchSIMD {
		t.Skip("no SIMD batch path on this host")
	}
	saForceScalar = true
	defer func() { saForceScalar = false }()
	ptBattery(t, "scalar")
}

// TestPTGroupFallbacks covers the inputs the group cannot run — above
// 64 spins, a self-coupling, a repeated neighbour, and a host without
// AVX2: each must take the one-read path and still match it.
func TestPTGroupFallbacks(t *testing.T) {
	r := rng.New(0xFA12)
	self := saCouplingIsing(r, 6, 1)
	self.Adj[2] = append(self.Adj[2], qubo.Coupling{To: 2, J: 0.5})
	dup := saCouplingIsing(r, 6, 1)
	dup.SetCoupling(1, 3, 0.7)
	dup.Adj[1] = append(dup.Adj[1], qubo.Coupling{To: 3, J: 0.2})
	opts := qubo.PTOptions{Replicas: 3, Sweeps: 10, SwapInterval: 2}
	for _, c := range []struct {
		name string
		is   *qubo.Ising
	}{{"n=65", saCouplingIsing(r, 65, 1)}, {"self-coupling", self}, {"repeated-neighbour", dup}} {
		if new(saGroupScratch).begin(c.is, 3, opts.Replicas) {
			t.Fatalf("%s: the group accepted a model it cannot run", c.name)
		}
		checkPTGroup(t, c.name, c.is, 3, opts, r.Uint64())
	}
	defer func(h bool) { hasBatchSIMD = h }(hasBatchSIMD)
	hasBatchSIMD = false
	is := saCouplingIsing(r, 6, 1)
	if new(saGroupScratch).begin(is, 3, opts.Replicas) {
		t.Fatal("no-SIMD host: the group did not fall back")
	}
	checkPTGroup(t, "no-simd", is, 3, opts, r.Uint64())
}
