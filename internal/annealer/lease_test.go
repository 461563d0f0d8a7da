package annealer

import (
	"reflect"
	"testing"

	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/rng"
)

func leaseTestIsing(t *testing.T) *instance.Instance {
	t.Helper()
	in, err := instance.Synthesize(instance.Spec{Users: 4, Scheme: modulation.QAM16, Seed: 0x1EA5E})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// A leased run must be bit-identical to a direct Run with the same
// parameters and seed — the lease amortizes Prepare, nothing else.
func TestLeaseRunMatchesDirectRun(t *testing.T) {
	in := leaseTestIsing(t)
	is := in.Reduction.Ising
	sc, err := Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	init := make([]int8, is.N)
	for i := range init {
		init[i] = 1
	}
	p := Params{
		Schedule: sc, InitialState: init, NumReads: 12,
		SweepsPerMicrosecond: 30,
		ICE:                  ICE{SigmaH: 0.02, SigmaJ: 0.01},
		Faults:               FaultModel{ReadTimeoutRate: 0.1, CalibrationDriftRate: 0.1},
	}
	direct, err := Run(is, p, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	lease, err := NewLease(p)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2; trial++ {
		leased, err := lease.Run(is, init, 12, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct.Samples, leased.Samples) {
			t.Fatalf("trial %d: leased samples diverge from direct run", trial)
		}
		if direct.Best.Energy != leased.Best.Energy || direct.Faults != leased.Faults {
			t.Fatalf("trial %d: best/faults diverge: %+v vs %+v", trial, direct.Faults, leased.Faults)
		}
	}
}

// The embedded path through a QPU lease must match QPU.Run exactly too.
func TestQPULeaseMatchesQPURun(t *testing.T) {
	in := leaseTestIsing(t)
	is := in.Reduction.Ising
	sc, err := Forward(1, 0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQPU2000Q()
	p := Params{Schedule: sc, NumReads: 8, SweepsPerMicrosecond: 30}
	direct, err := q.Run(is, p, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	lease, err := q.Lease(p)
	if err != nil {
		t.Fatal(err)
	}
	if !lease.Embedded() {
		t.Fatal("QPU lease should report embedded")
	}
	leased, err := lease.Run(is, nil, 8, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Samples, leased.Samples) {
		t.Fatal("embedded leased samples diverge from QPU.Run")
	}
	if direct.BrokenChainRate != leased.BrokenChainRate {
		t.Fatalf("broken-chain rate diverges: %g vs %g", direct.BrokenChainRate, leased.BrokenChainRate)
	}
}

// One lease must serve many distinct problems without cross-talk: each
// problem's result matches a fresh direct run.
func TestLeaseServesManyProblems(t *testing.T) {
	sc, err := Reverse(0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := NewLease(Params{Schedule: sc, SweepsPerMicrosecond: 30})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		in, err := instance.Synthesize(instance.Spec{Users: 3, Scheme: modulation.QPSK, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		is := in.Reduction.Ising
		init := make([]int8, is.N)
		for i := range init {
			init[i] = -1
		}
		leased, err := lease.Run(is, init, 6, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Run(is, Params{Schedule: sc, InitialState: init, NumReads: 6, SweepsPerMicrosecond: 30}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct.Samples, leased.Samples) {
			t.Fatalf("seed %d: lease run diverges from direct run", seed)
		}
	}
}

func TestLeaseErrorContracts(t *testing.T) {
	sc, err := Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLease(Params{}); err == nil {
		t.Fatal("nil schedule must fail lease creation")
	}
	if _, err := NewLease(Params{Schedule: sc, SweepsPerMicrosecond: -1}); err == nil {
		t.Fatal("negative sweep rate must fail lease creation")
	}
	lease, err := NewLease(Params{Schedule: sc})
	if err != nil {
		t.Fatal(err)
	}
	in := leaseTestIsing(t)
	is := in.Reduction.Ising
	if _, err := lease.Run(is, nil, 4, rng.New(1)); err == nil {
		t.Fatal("reverse lease without an initial state must fail")
	}
	if _, err := lease.Run(is, make([]int8, is.N), MaxReads+1, rng.New(1)); err == nil {
		t.Fatal("reads beyond MaxReads must fail")
	}
	prep, err := lease.PrepareProblem(is)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lease.RunPrepared(prep, make([]int8, is.N), MaxReads+1, rng.New(1)); err == nil {
		t.Fatal("prepared reads beyond MaxReads must fail")
	}
	if got := lease.ServiceMicros(10); got != 10*sc.Duration() {
		t.Fatalf("logical ServiceMicros = %g, want %g", got, 10*sc.Duration())
	}
	q := NewQPU2000Q()
	ql, err := q.Lease(Params{Schedule: sc})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ql.ServiceMicros(10), q.ServiceTime(sc, 10); got != want {
		t.Fatalf("QPU ServiceMicros = %g, want %g", got, want)
	}
}
