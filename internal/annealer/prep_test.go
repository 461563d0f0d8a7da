package annealer

import (
	"reflect"
	"testing"

	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

func prepTestProblems(t *testing.T, count int) []*qubo.Ising {
	t.Helper()
	out := make([]*qubo.Ising, count)
	for i := range out {
		in, err := instance.Synthesize(instance.Spec{Users: 3, Scheme: modulation.QPSK, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = in.Reduction.Ising
	}
	return out
}

// RunPrepared must be bit-identical to Lease.Run — the prepared form
// only skips the per-call compile — on the logical, the chain-embedded
// QPU and the default (logical) QPU lease paths, and for repeated runs
// of one Prepared.
func TestRunPreparedMatchesRun(t *testing.T) {
	is := prepTestProblems(t, 1)[0]
	sc, err := Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	init := make([]int8, is.N)
	for i := range init {
		init[i] = 1
	}
	p := Params{
		Schedule: sc, NumReads: 10, SweepsPerMicrosecond: 30,
		ICE:    ICE{SigmaH: 0.02, SigmaJ: 0.01},
		Faults: FaultModel{ReadTimeoutRate: 0.1, CalibrationDriftRate: 0.1},
	}
	leases := map[string]*Lease{}
	l, err := NewLease(p)
	if err != nil {
		t.Fatal(err)
	}
	leases["logical"] = l
	if l, err = chainQPU().Lease(p); err != nil {
		t.Fatal(err)
	}
	leases["embedded"] = l
	if l, err = NewQPU2000Q().Lease(p); err != nil {
		t.Fatal(err)
	}
	leases["qpu-logical"] = l
	for name, l := range leases {
		t.Run(name, func(t *testing.T) {
			direct, err := l.Run(is, init, 10, rng.New(3))
			if err != nil {
				t.Fatal(err)
			}
			prep, err := l.PrepareProblem(is)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 2; trial++ {
				got, err := l.RunPrepared(prep, init, 10, rng.New(3))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(direct.Samples, got.Samples) {
					t.Fatalf("trial %d: prepared samples diverge from Lease.Run", trial)
				}
				if direct.Best.Energy != got.Best.Energy || direct.Faults != got.Faults ||
					direct.BrokenChainRate != got.BrokenChainRate {
					t.Fatalf("trial %d: prepared result metadata diverges", trial)
				}
			}
		})
	}
}

// A Prepared is bound to the lease that compiled it.
func TestRunPreparedWrongLease(t *testing.T) {
	is := prepTestProblems(t, 1)[0]
	sc, err := Forward(1, 0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewLease(Params{Schedule: sc, SweepsPerMicrosecond: 30})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLease(Params{Schedule: sc, SweepsPerMicrosecond: 30})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := a.PrepareProblem(is)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunPrepared(prep, nil, 2, rng.New(1)); err == nil {
		t.Fatal("prepared problem from lease a must be rejected by lease b")
	}
	if _, err := a.RunPrepared(nil, nil, 2, rng.New(1)); err == nil {
		t.Fatal("nil prepared problem must be rejected")
	}
}

// ContentHash/Equal identify a problem by content (perfbench's trace
// replay dedups compiles with them): equal content hashes equal, and any
// content difference — field value, edge weight, topology, offset —
// breaks both.
func TestIsingContentHashEqual(t *testing.T) {
	base := prepTestProblems(t, 1)[0]
	same := base.Clone()
	if base.ContentHash() != same.ContentHash() || !base.Equal(same) {
		t.Fatal("clone must hash and compare equal")
	}
	mutate := []func(*qubo.Ising){
		func(is *qubo.Ising) { is.H[1] += 1e-9 },
		func(is *qubo.Ising) { is.Offset++ },
		func(is *qubo.Ising) { is.Adj[0][0].J *= 1.0000001 },
		func(is *qubo.Ising) { is.SetCoupling(0, is.N-1, 12345) },
	}
	for i, f := range mutate {
		m := base.Clone()
		f(m)
		if base.Equal(m) {
			t.Fatalf("mutation %d not detected by Equal", i)
		}
		if base.ContentHash() == m.ContentHash() {
			t.Fatalf("mutation %d not reflected in ContentHash", i)
		}
	}
}
