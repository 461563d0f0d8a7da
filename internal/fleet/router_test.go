package fleet

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

func hardProblem(t testing.TB, seed uint64) *qubo.Ising {
	t.Helper()
	in, err := instance.Synthesize(instance.Spec{Users: 8, Scheme: modulation.QAM16, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return in.Reduction.Ising
}

func TestHardnessScale(t *testing.T) {
	if h := Hardness(nil); h != 0 {
		t.Fatalf("nil hardness %g", h)
	}
	easy := Hardness(testProblems(t)[0])
	hard := Hardness(hardProblem(t, 1))
	if easy < 0 || easy > 1 || hard < 0 || hard > 1 {
		t.Fatalf("hardness out of [0,1]: easy %g hard %g", easy, hard)
	}
	if easy >= hard {
		t.Fatalf("6-spin QPSK (%g) not easier than 32-spin 16QAM (%g)", easy, hard)
	}
	// The threshold must actually split the two workload classes.
	if easy > hardnessThreshold || hard <= hardnessThreshold {
		t.Fatalf("threshold %g does not separate easy %g from hard %g", hardnessThreshold, easy, hard)
	}
}

func TestRouteDecisions(t *testing.T) {
	rc := RouterConfig{}
	easy, hard := testProblems(t)[0], hardProblem(t, 2)

	if d := rc.Route(easy, 0, 8); d.Class != ClassClassical {
		t.Fatalf("easy frame with no deadline routed %v", d.Class)
	}
	if d := rc.Route(hard, 0, 8); d.Class != ClassQuantum {
		t.Fatalf("hard frame routed %v", d.Class)
	}
	// A deadline below the slack-padded classical estimate must force the
	// easy frame onto the quantum class.
	est := rc.Route(easy, 0, 8).ClassicalMicros
	if d := rc.Route(easy, est, 8); d.Class != ClassQuantum {
		t.Fatalf("tight easy frame routed %v (deadline %g, estimate %g)", d.Class, est, est)
	}
	if d := rc.Route(easy, 10*est, 8); d.Class != ClassClassical {
		t.Fatalf("loose easy frame routed %v", d.Class)
	}
	// ForceClass overrides scoring in both directions.
	for _, force := range []BackendClass{ClassQuantum, ClassClassical} {
		frc := RouterConfig{ForceClass: force}
		if d := frc.Route(easy, 1, 8); d.Class != force {
			t.Fatalf("forced %v, routed %v", force, d.Class)
		}
		if d := frc.Route(hard, 0, 8); d.Class != force {
			t.Fatalf("forced %v, routed %v", force, d.Class)
		}
	}
}

// TestRouteDeadlineMonotone sweeps deadlines downward over random
// instances: once a frame routes quantum, every tighter deadline must
// also route quantum (tightening never moves work to a slower class).
func TestRouteDeadlineMonotone(t *testing.T) {
	rc := RouterConfig{}
	src := rng.New(99)
	probs := append(append([]*qubo.Ising{}, testProblems(t)...), hardProblem(t, 3))
	for trial := 0; trial < 50; trial++ {
		is := probs[src.Uint64()%uint64(len(probs))]
		reads := int(src.Uint64()%30) + 1
		start := src.Float64() * 100_000
		quantumSeen := false
		for deadline := start; deadline > 1e-3; deadline *= 0.7 {
			d := rc.Route(is, deadline, reads)
			if d.Class == ClassQuantum {
				quantumSeen = true
			} else if quantumSeen {
				t.Fatalf("trial %d: deadline %g routed %v after a looser deadline routed quantum", trial, deadline, d.Class)
			}
		}
	}
}

// TestHybridRoutingConservation serves a mixed workload under hybrid
// routing with faults and a mid-run classical death, then asserts the
// global scheduling invariants: every frame lands on exactly one device
// or shed rung.
func TestHybridRoutingConservation(t *testing.T) {
	devs := heteroDevices()
	devs[2].FailAt = 50_000 // the PT worker dies mid-run
	devs[0].Faults.ProgrammingFailureRate = 0.3
	reqs := mixedWorkload(t, 3, 4)
	res, err := Serve(context.Background(), Config{
		Devices: devs, Route: RouteHybrid, NumReads: 4, Seed: 77,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, reqs, res)
	if res.Report.Route != "hybrid" {
		t.Fatalf("report route %q", res.Report.Route)
	}
}

// mixedWorkload interleaves easy 6-spin streams with loose deadlines and
// hard 32-spin streams with tight ones — the hybrid experiment's shape.
func mixedWorkload(t testing.TB, streams, perStream int) []Request {
	t.Helper()
	easy := testProblems(t)
	var reqs []Request
	for s := 0; s < streams; s++ {
		hard := s%2 == 1
		for q := 0; q < perStream; q++ {
			var p *qubo.Ising
			deadline := 5_000.0
			if hard {
				p = hardProblem(t, uint64(s*perStream+q)+1)
				deadline = 80_000
			} else {
				p = easy[(s*perStream+q)%len(easy)]
			}
			init := make([]int8, p.N)
			for i := range init {
				init[i] = 1
			}
			reqs = append(reqs, Request{
				Stream: s, Seq: q,
				Arrival:      float64(q) * 2_000,
				Deadline:     deadline,
				Problem:      p,
				InitialState: init,
			})
		}
	}
	return reqs
}

// TestHybridClassDie exercises the per-backend fallback rung: when every
// classical device dies, classically-routed frames must fall back to the
// quantum class (route-fallback) instead of starving or shedding.
func TestHybridClassDie(t *testing.T) {
	devs := HybridDevices(1, 1, 0)
	devs[1].FailAt = 1 // classical worker dies immediately
	reqs := mixedWorkload(t, 2, 3)
	res, err := Serve(context.Background(), Config{
		Devices: devs, Route: RouteHybrid, NumReads: 3, Seed: 21,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, reqs, res)
	for _, o := range res.Outcomes {
		if o.Shed && o.ShedReason != ShedDeadlineExpired {
			t.Fatalf("frame (%d,%d) shed with %q after class death", o.Stream, o.Seq, o.ShedReason)
		}
	}
	if res.Report.RouteFallbacks == 0 {
		t.Fatal("no route fallbacks recorded after the classical class died")
	}
}

// TestShedNoCompatibleBackend pins the new shed rung: a problem no live
// backend can hold (QAOA-only pool, 32 spins) sheds with the
// no-compatible-backend reason rather than hanging.
func TestShedNoCompatibleBackend(t *testing.T) {
	big := hardProblem(t, 5)
	reqs := []Request{{
		Stream: 0, Seq: 0, Problem: big, InitialState: make([]int8, big.N),
	}}
	res, err := Serve(context.Background(), Config{
		Devices: []Device{{Backend: BackendQAOA}}, NumReads: 2, Seed: 3,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes[0]
	if !o.Shed || o.ShedReason != ShedNoCompatibleBackend {
		t.Fatalf("outcome %+v, want shed %q", o, ShedNoCompatibleBackend)
	}
	if o.Source != core.AnswerClassicalFallback {
		t.Fatalf("shed source %v", o.Source)
	}
}

// FuzzBackendRoute generates random hybrid pools and workloads, asserting
// the invariants plus per-class placement: a frame routed to a class is
// served by that class unless a fallback or relaxation was recorded.
func FuzzBackendRoute(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(1), uint8(1), uint16(2000), false)
	f.Add(uint64(9), uint8(3), uint8(2), uint8(2), uint8(0), uint16(0), true)
	f.Add(uint64(33), uint8(1), uint8(5), uint8(0), uint8(2), uint16(400), true)
	f.Fuzz(func(t *testing.T, seed uint64, streams, perStream, nQPU, nClassical uint8, deadline uint16, faults bool) {
		ns := int(streams)%4 + 1
		nf := int(perStream)%5 + 1
		nq := int(nQPU) % 3
		nc := int(nClassical) % 3
		if nq+nc == 0 {
			nq = 1
		}
		devs := DefaultDevices(nq)
		kinds := []BackendKind{BackendParallelTempering, BackendSimulatedAnnealing, BackendQAOA}
		for i := 0; i < nc; i++ {
			devs = append(devs, Device{Backend: kinds[(int(seed)+i)%len(kinds)]})
		}
		if faults && len(devs) > 1 {
			devs[0].Faults.ProgrammingFailureRate = 0.4
			devs[len(devs)-1].FailAt = 30_000
		}
		probs := testProblems(t)
		src := rng.New(seed)
		var reqs []Request
		for s := 0; s < ns; s++ {
			arrival := 0.0
			for q := 0; q < nf; q++ {
				p := probs[src.Uint64()%uint64(len(probs))]
				init := make([]int8, p.N)
				for i := range init {
					init[i] = int8(2*int(src.Uint64()&1) - 1)
				}
				arrival += 500 * src.Float64()
				reqs = append(reqs, Request{
					Stream: s, Seq: q, Arrival: arrival, Deadline: float64(deadline),
					Problem: p, InitialState: init,
				})
			}
		}
		cfg := Config{
			Devices: devs, Route: RouteHybrid, NumReads: 2,
			StreamQueueBound: 4, Seed: seed,
		}
		res, err := Serve(context.Background(), cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, reqs, res)
		// Class placement: with no quantum devices, nothing may claim a
		// quantum answer; with no classical devices, no classical-solver
		// answers can appear.
		for _, o := range res.Outcomes {
			if nq == 0 && o.Source == core.AnswerQuantum {
				t.Fatalf("quantum answer from a QPU-free pool: %+v", o)
			}
			if nc == 0 && o.Source == core.AnswerClassicalSolver {
				t.Fatalf("classical-solver answer from a classical-free pool: %+v", o)
			}
		}
	})
}
