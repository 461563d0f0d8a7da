package annealer

import (
	"testing"

	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

func allocTestIsing(t *testing.T) *qubo.Ising {
	t.Helper()
	in, err := instance.Synthesize(instance.Spec{Users: 8, Scheme: modulation.QAM16, Seed: 0xBE9C})
	if err != nil {
		t.Fatal(err)
	}
	return in.Reduction.Ising
}

// TestRunBatchAllocs pins the steady-state allocation count of a full
// 32-read Run on the benchmark workload. The lockstep batch kernel
// shares one pooled struct-of-arrays scratch across all 32 reads, and
// per-read scratch comes from one package pool, so the remaining
// allocations are the returned samples plus a handful of compile-time
// slices — measured at 47. The bound leaves headroom for
// runtime jitter but fails loudly if per-read allocation creeps back in
// (the pre-batch code cost 556 allocs/op; see BenchmarkRun's committed
// baseline).
func TestRunBatchAllocs(t *testing.T) {
	is := allocTestIsing(t)
	fa, _ := Forward(1, 0.41, 1)
	p := Params{Schedule: fa, NumReads: 32, SweepsPerMicrosecond: 30}
	var seed uint64
	if _, err := Run(is, p, rng.New(1)); err != nil { // warm scratch pools
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		seed++
		if _, err := Run(is, p, rng.New(seed)); err != nil {
			t.Fatal(err)
		}
	})
	if got > 110 {
		t.Errorf("32-read Run allocates %.0f objects, want ≤ 110 (steady state is ~47)", got)
	}
}

// TestRunPreparedCacheHitAllocs pins what a run against a shared
// Prepared costs on the chain path: RunPrepared against an
// already-compiled Prepared skips clique embedding, chain-strength scan,
// physical coefficient layout and CSR normalization, leaving ~15
// allocations versus ~4000 for a Lease.Run of the same batch, which
// compiles. Both sides are pinned so the value of sharing a Prepared and
// the prepared path's cost are each guarded.
func TestRunPreparedCacheHitAllocs(t *testing.T) {
	is := allocTestIsing(t)
	fa, _ := Forward(1, 0.41, 1)
	p := Params{Schedule: fa, NumReads: 32, SweepsPerMicrosecond: 30}
	l, err := chainQPU().Lease(p)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := l.PrepareProblem(is)
	if err != nil {
		t.Fatal(err)
	}
	var seed uint64
	if _, err := l.RunPrepared(prep, nil, 32, rng.New(1)); err != nil { // warm pools
		t.Fatal(err)
	}
	hit := testing.AllocsPerRun(10, func() {
		seed++
		if _, err := l.RunPrepared(prep, nil, 32, rng.New(seed)); err != nil {
			t.Fatal(err)
		}
	})
	if hit > 64 {
		t.Errorf("cache-hit RunPrepared allocates %.0f objects, want ≤ 64 (steady state is ~15)", hit)
	}
	uncached := testing.AllocsPerRun(10, func() {
		seed++
		if _, err := l.Run(is, nil, 32, rng.New(seed)); err != nil {
			t.Fatal(err)
		}
	})
	if uncached < 10*hit {
		t.Errorf("uncached Lease.Run allocates %.0f objects vs %.0f on a hit; the compile the cache elides has shrunk below 10× — re-baseline these pins", uncached, hit)
	}
}

// TestLogicalLeaseAllocs pins the serve's own path, a default QPU lease
// running the logical problem: a run against a shared Prepared allocates
// ~13 objects, and a Lease.Run adds only the logical CSR compile (~20 in
// all) — there is no embedding left to skip, so both sides get an
// absolute bound rather than a ratio.
func TestLogicalLeaseAllocs(t *testing.T) {
	is := allocTestIsing(t)
	fa, _ := Forward(1, 0.41, 1)
	p := Params{Schedule: fa, NumReads: 32, SweepsPerMicrosecond: 30}
	l, err := NewQPU2000Q().Lease(p)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := l.PrepareProblem(is)
	if err != nil {
		t.Fatal(err)
	}
	var seed uint64
	if _, err := l.RunPrepared(prep, nil, 32, rng.New(1)); err != nil { // warm pools
		t.Fatal(err)
	}
	hit := testing.AllocsPerRun(10, func() {
		seed++
		if _, err := l.RunPrepared(prep, nil, 32, rng.New(seed)); err != nil {
			t.Fatal(err)
		}
	})
	if hit > 64 {
		t.Errorf("logical cache-hit RunPrepared allocates %.0f objects, want ≤ 64 (steady state is ~13)", hit)
	}
	uncached := testing.AllocsPerRun(10, func() {
		seed++
		if _, err := l.Run(is, nil, 32, rng.New(seed)); err != nil {
			t.Fatal(err)
		}
	})
	if uncached > 80 {
		t.Errorf("logical uncached Lease.Run allocates %.0f objects, want ≤ 80 (steady state is ~20)", uncached)
	}
}

// TestPrepareProblemAllocs pins the logical compile on the serve's
// 32-spin problem: the CSR layout (whose three index arrays share one
// allocation) and its normalization, and the kernel's dense row table,
// about 7 allocations. PrepareProblem keeps the caller's problem rather than a
// deep copy (which alone cost 35 allocations here), so a frame's compile
// stays this small.
func TestPrepareProblemAllocs(t *testing.T) {
	is := allocTestIsing(t)
	fa, _ := Forward(1, 0.41, 1)
	l, err := NewQPU2000Q().Lease(Params{Schedule: fa, NumReads: 32, SweepsPerMicrosecond: 30})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		if _, err := l.PrepareProblem(is); err != nil {
			t.Fatal(err)
		}
	})
	if got > 7 {
		t.Errorf("PrepareProblem allocates %.0f objects on a %d-spin problem, want ≤ 7", got, is.N)
	}
}

// TestLockstepGroupAllocs pins the lockstep groups' steady state: the
// replica buffers, slot table, energies, ladder and scratch streams
// all live in the pooled group scratch, and the scalar lane's argument
// block on the stack, so after warm-up an 8-lane or a one-lane call
// allocates one object, its result spins. Each runs on the serve's hard
// 32-spin problem with the fleet's serving options.
func TestLockstepGroupAllocs(t *testing.T) {
	if !hasBatchSIMD {
		t.Skip("no SIMD batch path on this host")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	is := allocTestIsing(t)
	var srcs [lockstepWidth]rng.Source
	var rs [lockstepWidth]*rng.Source
	var out [lockstepWidth]qubo.Sample
	root := rng.New(3)
	for _, c := range []struct {
		name  string
		group func()
	}{
		{"8-lane PT", func() {
			ParallelTemperingGroup(is, rs[:], qubo.PTOptions{Replicas: 4, Sweeps: 20, BetaMin: 0.1, BetaMax: 10, SwapInterval: 5}, out[:])
		}},
		{"8-lane SA", func() { SimulatedAnnealingGroup(is, rs[:], nil, qubo.SAOptions{Sweeps: 30}, out[:]) }},
		{"1-lane SA (the scalar lane)", func() { SimulatedAnnealingGroup(is, rs[:1], nil, qubo.SAOptions{Sweeps: 30}, out[:1]) }},
	} {
		for j := range rs {
			root.SplitInto(&srcs[j], uint64(j))
			rs[j] = &srcs[j]
		}
		c.group() // warm the scratch pool
		// 100 runs, so a GC emptying the pool mid-measurement (a few
		// scratch allocations once) cannot lift the truncated mean.
		if got := testing.AllocsPerRun(100, c.group); got > 1 {
			t.Errorf("%s group allocates %.0f objects per call, want 1 (the result spins)", c.name, got)
		}
	}
}
