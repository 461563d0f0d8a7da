package annealer

import (
	"reflect"
	"testing"

	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
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

// chainQPU is the paper's device with chain dynamics opted in: leases
// and runs on it take the clique-embedded physical path.
func chainQPU() *QPU {
	q := NewQPU2000Q()
	q.Chains = true
	return q
}

// The embedded path through a QPU lease must match QPU.Run exactly too.
func TestQPULeaseMatchesQPURun(t *testing.T) {
	in := leaseTestIsing(t)
	is := in.Reduction.Ising
	sc, err := Forward(1, 0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := chainQPU()
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

// TestNilQPUIsBareSampler pins what lets callers holding an optional
// device skip the nil branch: a nil *QPU's Lease is NewLease — same
// samples, no chains, no capacity limit — and
// its Run is Run.
func TestNilQPUIsBareSampler(t *testing.T) {
	is := leaseTestIsing(t).Reduction.Ising
	sc, err := Forward(1, 0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Schedule: sc, NumReads: 8, SweepsPerMicrosecond: 30, ICE: ICE{SigmaH: 0.02}}
	var q *QPU
	want, err := Run(is, p, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Run(is, p, rng.New(3))
	if err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("nil QPU.Run diverges from Run (err %v)", err)
	}
	nl, err := q.Lease(p)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Embedded() {
		t.Fatal("nil QPU lease is not a bare lease")
	}
	if got, err = nl.Run(is, nil, 8, rng.New(3)); err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("nil QPU lease diverges from Run (err %v)", err)
	}
	if _, err := nl.PrepareProblem(qubo.NewIsing(NewQPU2000Q().MaxProblemSize() + 1)); err != nil {
		t.Fatalf("nil QPU lease applied a capacity limit: %v", err)
	}
}

// TestQPULeaseRunsLogicalProblem pins the default QPU lease: on the
// serve's shape (an 8-user 16-QAM frame reverse-annealed from its greedy
// candidate, with ICE and soft faults) its samples are bit-identical to a
// logical NewLease with the same Params and RNG, through Run, RunPrepared
// and QPU.Run alike — yet it still rejects problems beyond the clique
// capacity.
func TestQPULeaseRunsLogicalProblem(t *testing.T) {
	in, err := instance.Synthesize(instance.Spec{Users: 8, Scheme: modulation.QAM16, Seed: 0xBE9C})
	if err != nil {
		t.Fatal(err)
	}
	is := in.Reduction.Ising
	init := qubo.GreedySearchIsing(is, qubo.OrderDescending)
	sc, err := Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{
		Schedule: sc, InitialState: init, NumReads: 12, SweepsPerMicrosecond: 30,
		ICE:    DWave2000QICE(),
		Faults: FaultModel{ReadTimeoutRate: 0.1, ChainBreakStormRate: 0.1, CalibrationDriftRate: 0.1},
	}
	q := NewQPU2000Q()
	ql, err := q.Lease(p)
	if err != nil {
		t.Fatal(err)
	}
	if ql.Embedded() {
		t.Fatal("default QPU lease reports chain dynamics")
	}
	ll, err := NewLease(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ll.Run(is, init, 12, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	prep, err := ql.PrepareProblem(is)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() (*Result, error){
		"Lease.Run":   func() (*Result, error) { return ql.Run(is, init, 12, rng.New(5)) },
		"RunPrepared": func() (*Result, error) { return ql.RunPrepared(prep, init, 12, rng.New(5)) },
		"QPU.Run":     func() (*Result, error) { return q.Run(is, p, rng.New(5)) },
	} {
		got, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Samples, got.Samples) || want.Faults != got.Faults {
			t.Fatalf("%s on the default QPU lease diverges from the logical lease", name)
		}
		if got.BrokenChainRate != 0 {
			t.Fatalf("%s: broken-chain rate %g without chains", name, got.BrokenChainRate)
		}
	}
	over := qubo.NewIsing(q.MaxProblemSize() + 1)
	if _, err := ql.Run(over, nil, 1, rng.New(1)); err == nil {
		t.Fatal("default QPU lease ran a problem beyond its clique capacity")
	}
	if _, err := ql.PrepareProblem(over); err == nil {
		t.Fatal("default QPU lease prepared a problem beyond its clique capacity")
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
}
