package annealer

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/channel"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// saCouplingIsing draws a dense-ish Ising model on n spins with fields
// and couplings of the given scale. Every fifth pair is an exact-zero
// coupling stored directly in the adjacency (SetCoupling would drop
// it), alternating +0 and −0, so the group's signed-zero row identity
// is exercised on couplings that are present but zero.
func saCouplingIsing(r *rng.Source, n int, scale float64) *qubo.Ising {
	is := qubo.NewIsing(n)
	negZero := math.Copysign(0, -1)
	pair := 0
	for i := 0; i < n; i++ {
		is.H[i] = scale * r.NormFloat64()
		for j := i + 1; j < n; j++ {
			if r.Float64() >= 0.7 {
				continue
			}
			pair++
			switch {
			case pair%10 == 0:
				is.Adj[i] = append(is.Adj[i], qubo.Coupling{To: j, J: 0})
				is.Adj[j] = append(is.Adj[j], qubo.Coupling{To: i, J: 0})
			case pair%5 == 0:
				is.Adj[i] = append(is.Adj[i], qubo.Coupling{To: j, J: negZero})
				is.Adj[j] = append(is.Adj[j], qubo.Coupling{To: i, J: negZero})
			default:
				is.SetCoupling(i, j, scale*r.NormFloat64())
			}
		}
	}
	return is
}

// saReductions returns count real 4-user 16-QAM detection problems
// (Rayleigh, 11 dB) — the 16-spin models top-K candidate generation
// anneals.
func saReductions(t testing.TB, count int) []*qubo.Ising {
	t.Helper()
	out := make([]*qubo.Ising, count)
	for i := range out {
		in, err := instance.Synthesize(instance.Spec{
			Users: 4, Scheme: modulation.QAM16, Channel: channel.Rayleigh,
			NoiseVariance: channel.NoiseVarianceForSNR(11, 4), Seed: uint64(0x5A00 + 31*i),
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = in.Reduction.Ising
	}
	return out
}

// checkSAGroup runs one group of width w on is and asserts every lane's
// sample and final RNG state equal the one-read oracle's.
func checkSAGroup(t *testing.T, label string, is *qubo.Ising, w int, explicit bool, opts qubo.SAOptions, seed uint64) {
	t.Helper()
	root := rng.New(seed)
	var starts [][]int8
	if explicit {
		starts = make([][]int8, w)
		for j := range starts {
			starts[j] = make([]int8, is.N)
			for i := range starts[j] {
				starts[j][i] = root.Spin()
			}
		}
	}
	want := make([]qubo.Sample, w)
	wantR := make([]*rng.Source, w)
	gotR := make([]*rng.Source, w)
	for j := 0; j < w; j++ {
		wantR[j], gotR[j] = root.Split(uint64(j)), root.Split(uint64(j))
		if explicit {
			want[j] = qubo.SimulatedAnnealingFrom(is, wantR[j], starts[j], opts)
		} else {
			want[j] = qubo.SimulatedAnnealing(is, wantR[j], opts)
		}
	}
	got := make([]qubo.Sample, w)
	SimulatedAnnealingGroup(is, gotR, starts, opts, got)
	if !reflect.DeepEqual(got, want) {
		for j := range got {
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("%s: lane %d of %d: group %v/%v, one-read %v/%v", label, j, w,
					got[j].Spins, got[j].Energy, want[j].Spins, want[j].Energy)
			}
		}
	}
	if !reflect.DeepEqual(gotR, wantR) {
		t.Fatalf("%s: final RNG states differ", label)
	}
}

// saBattery is the equivalence battery shared by the SIMD and the
// forced-scalar runs: sizes on both sides of the 64-spin bound, every
// group width, default, short and frozen-tail schedules, three coupling
// scales with exact-zero couplings, tie-heavy integer models, random
// and explicit starts, and real detection reductions. Every width below
// saKernelMinWidth — the scalar lane — meets every size up to the bound,
// the default and frozen-tail schedules, and both start kinds, and every
// width meets the tie models.
func saBattery(t *testing.T, tag string) {
	r := rng.New(0x5A6)
	frozenTail := qubo.SAOptions{Sweeps: 40, BetaStart: 1, BetaEnd: 400}
	optsList := []qubo.SAOptions{
		{},
		{Sweeps: 1},
		{Sweeps: 3},
		frozenTail,
	}
	for _, n := range []int{1, 2, 3, 5, 16, 64} {
		is := saCouplingIsing(r, n, 2)
		for w := 1; w < saKernelMinWidth; w++ {
			for _, opts := range []qubo.SAOptions{{}, frozenTail} {
				if opts.Sweeps == 0 && n > 16 {
					continue // keeps the battery fast under -race
				}
				for _, explicit := range []bool{false, true} {
					label := fmt.Sprintf("%s lane n=%d opts=%+v w=%d explicit=%v", tag, n, opts, w, explicit)
					checkSAGroup(t, label, is, w, explicit, opts, r.Uint64())
				}
			}
		}
	}
	w := 0
	for _, n := range []int{1, 2, 3, 5, 16, 32, 64, 65} {
		for _, scale := range []float64{0.3, 2, 20} {
			is := saCouplingIsing(r, n, scale)
			for oi, opts := range optsList {
				if opts.Sweeps == 0 && n > 16 && scale != 2 {
					// The default 1000-sweep schedule runs the large
					// sizes at one scale only, keeping the battery fast
					// under -race.
					continue
				}
				w = w%lockstepWidth + 1
				explicit := (w+oi)%2 == 0
				label := fmt.Sprintf("%s n=%d scale=%g opts=%+v w=%d explicit=%v", tag, n, scale, opts, w, explicit)
				checkSAGroup(t, label, is, w, explicit, opts, r.Uint64())
			}
		}
	}
	// Zero fields and ±1 couplings: every energy is an exact integer, so
	// distinct states tie often and the strict new-best rule is pinned.
	for _, n := range []int{6, 16, 40} {
		is := qubo.NewIsing(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.5 {
					is.SetCoupling(i, j, float64(2*int(r.Uint64()%2)-1))
				}
			}
		}
		for w := 1; w <= lockstepWidth; w++ {
			checkSAGroup(t, fmt.Sprintf("%s ties n=%d w=%d", tag, n, w), is, w, w%2 == 1, qubo.SAOptions{Sweeps: 200}, r.Uint64())
		}
	}
	for i, is := range saReductions(t, 60) {
		checkSAGroup(t, fmt.Sprintf("%s reduction %d", tag, i), is, i%lockstepWidth+1, i%3 == 0, qubo.SAOptions{}, r.Uint64())
	}
}

// TestSAGroupMatchesOneRead is the lockstep SA group's equivalence
// property: every lane reproduces qubo.SimulatedAnnealingFrom (the
// one-read path and oracle) bit for bit, sample and final RNG state.
func TestSAGroupMatchesOneRead(t *testing.T) {
	saBattery(t, "simd")
}

// TestSAGroupScalarMatchesSIMD forces the scalar replay step (the
// Lemire-rejection fallback, reached naturally with probability
// ~n/2⁶⁴) on every call: the group must still reproduce the oracle.
func TestSAGroupScalarMatchesSIMD(t *testing.T) {
	if !hasBatchSIMD {
		t.Skip("no SIMD batch path on this host")
	}
	saForceScalar = true
	defer func() { saForceScalar = false }()
	saBattery(t, "scalar")
}

// TestSAGroupFallbacks covers the inputs the dense rows cannot
// represent: each must run through the one-read path unchanged. A
// one-lane group on a model past the 64-spin bound takes that path too,
// not the scalar lane.
func TestSAGroupFallbacks(t *testing.T) {
	r := rng.New(0xFA11)
	big := saCouplingIsing(r, saGroupMaxN+1, 1)
	if new(saGroupScratch).begin(big, 1, 1) {
		t.Fatalf("begin accepted a %d-spin model", big.N)
	}
	checkSAGroup(t, "65 spins", big, 1, false, qubo.SAOptions{Sweeps: 20}, r.Uint64())
	self := saCouplingIsing(r, 6, 1)
	self.Adj[2] = append(self.Adj[2], qubo.Coupling{To: 2, J: 0.5})
	dup := saCouplingIsing(r, 6, 1)
	dup.SetCoupling(1, 3, 0.7)
	dup.Adj[1] = append(dup.Adj[1], qubo.Coupling{To: 3, J: 0.2})
	for name, is := range map[string]*qubo.Ising{"self-coupling": self, "repeated-neighbour": dup} {
		if new(saGroupScratch).buildRows(is) {
			t.Fatalf("%s: buildRows accepted adjacency it cannot represent", name)
		}
		checkSAGroup(t, name, is, 5, false, qubo.SAOptions{Sweeps: 20}, r.Uint64())
	}
}

// TestSAStepArgsLayout pins the saStepArgs field offsets that
// sa_simd_amd64.s loads and stores as hard constants.
func TestSAStepArgsLayout(t *testing.T) {
	var a saStepArgs
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"rs0", unsafe.Offsetof(a.rs0), 0}, {"rs1", unsafe.Offsetof(a.rs1), 64},
		{"rs2", unsafe.Offsetof(a.rs2), 128}, {"rs3", unsafe.Offsetof(a.rs3), 192},
		{"idx", unsafe.Offsetof(a.idx), 256}, {"lanoff", unsafe.Offsetof(a.lanoff), 320},
		{"dE", unsafe.Offsetof(a.dE), 384}, {"u", unsafe.Offsetof(a.u), 448},
		{"energy", unsafe.Offsetof(a.energy), 512}, {"bestE", unsafe.Offsetof(a.bestE), 576},
		{"spins", unsafe.Offsetof(a.spins), 640}, {"field", unsafe.Offsetof(a.field), 648},
		{"rows", unsafe.Offsetof(a.rows), 656}, {"bounds", unsafe.Offsetof(a.bounds), 664},
		{"nb", unsafe.Offsetof(a.nb), 672}, {"negnb", unsafe.Offsetof(a.negnb), 680},
		{"n", unsafe.Offsetof(a.n), 688}, {"np", unsafe.Offsetof(a.np), 696},
		{"beta", unsafe.Offsetof(a.beta), 704}, {"live", unsafe.Offsetof(a.live), 712},
		{"exm", unsafe.Offsetof(a.exm), 716}, {"bestm", unsafe.Offsetof(a.bestm), 720},
	} {
		if f.got != f.want {
			t.Errorf("saStepArgs.%s at offset %d, sa_simd_amd64.s assumes %d", f.name, f.got, f.want)
		}
	}
}

// TestSALaneArgsLayout pins the saLaneArgs offsets saLanex1 reads.
func TestSALaneArgsLayout(t *testing.T) {
	var a saLaneArgs
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"rs0", unsafe.Offsetof(a.rs0), 0}, {"rs1", unsafe.Offsetof(a.rs1), 8},
		{"rs2", unsafe.Offsetof(a.rs2), 16}, {"rs3", unsafe.Offsetof(a.rs3), 24},
		{"g", unsafe.Offsetof(a.g), 32}, {"field", unsafe.Offsetof(a.field), 40},
		{"bestG", unsafe.Offsetof(a.bestG), 48}, {"rows", unsafe.Offsetof(a.rows), 56},
		{"bounds", unsafe.Offsetof(a.bounds), 64}, {"nb", unsafe.Offsetof(a.nb), 72},
		{"negnb", unsafe.Offsetof(a.negnb), 80}, {"np", unsafe.Offsetof(a.np), 88},
		{"beta", unsafe.Offsetof(a.beta), 96}, {"ratio", unsafe.Offsetof(a.ratio), 104},
		{"energy", unsafe.Offsetof(a.energy), 112}, {"bestE", unsafe.Offsetof(a.bestE), 120},
		{"k", unsafe.Offsetof(a.k), 128}, {"left", unsafe.Offsetof(a.left), 136},
		{"i", unsafe.Offsetof(a.i), 144}, {"dE", unsafe.Offsetof(a.dE), 152},
		{"x", unsafe.Offsetof(a.x), 160}, {"u", unsafe.Offsetof(a.u), 168},
		{"settle", unsafe.Offsetof(a.settle), 176},
	} {
		if f.got != f.want {
			t.Errorf("saLaneArgs.%s at offset %d, sa_simd_amd64.s assumes %d", f.name, f.got, f.want)
		}
	}
}
