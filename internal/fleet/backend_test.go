package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

func TestBackendKindRoundTrip(t *testing.T) {
	for k := BackendQPUSim; k <= BackendQAOA; k++ {
		got, err := ParseBackendKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v, %v", k, got, err)
		}
	}
	for spell, want := range map[string]BackendKind{
		"qpu": BackendQPUSim, "pt": BackendParallelTempering, "sa": BackendSimulatedAnnealing,
	} {
		if got, err := ParseBackendKind(spell); err != nil || got != want {
			t.Fatalf("alias %q: got %v, %v", spell, got, err)
		}
	}
	if _, err := ParseBackendKind("abacus"); err == nil {
		t.Fatal("unknown backend parsed")
	}
}

// TestClassicalServiceModel pins the timing model's shape: positive for
// every kind, linear in reads for the MC solvers, and monotone in problem
// size.
func TestClassicalServiceModel(t *testing.T) {
	small := testProblems(t)[0]
	for _, kind := range []BackendKind{BackendSimulatedAnnealing, BackendParallelTempering, BackendQAOA} {
		one := classicalServiceMicros(kind, small, 1)
		ten := classicalServiceMicros(kind, small, 10)
		if one <= 0 || ten <= one {
			t.Fatalf("%v: service(1)=%g service(10)=%g", kind, one, ten)
		}
		if kind != BackendQAOA && ten != 10*one {
			t.Fatalf("%v: reads not linear: %g vs %g", kind, ten, 10*one)
		}
	}
	// PT runs Replicas sweeps-fuls per read, so it must cost more than SA
	// at equal defaults? Not necessarily (different sweep counts) — but
	// both must grow with problem size.
	in, err := instance.Synthesize(instance.Spec{Users: 8, Scheme: modulation.QAM16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	big := in.Reduction.Ising
	for _, kind := range []BackendKind{BackendSimulatedAnnealing, BackendParallelTempering} {
		if classicalServiceMicros(kind, big, 4) <= classicalServiceMicros(kind, small, 4) {
			t.Fatalf("%v: larger problem not slower", kind)
		}
	}
}

// TestRunClassicalFindsGround checks the quality model: on tiny instances
// every classical backend's best-of-reads matches the exhaustive ground
// energy, and repeated runs with one RNG key are bit-identical.
func TestRunClassicalFindsGround(t *testing.T) {
	for _, is := range testProblems(t) {
		want, err := qubo.ExhaustiveIsing(is)
		if err != nil {
			t.Fatal(err)
		}
		init := make([]int8, is.N)
		for i := range init {
			init[i] = 1
		}
		for _, kind := range []BackendKind{BackendSimulatedAnnealing, BackendParallelTempering, BackendQAOA} {
			best, mean, err := runClassical(kind, is, init, 8, rng.New(42))
			if err != nil {
				t.Fatal(err)
			}
			// Incremental FlipDelta accumulation vs the exhaustive direct
			// evaluation differ at float rounding scale; compare within it.
			if kind != BackendQAOA && math.Abs(best.Energy-want.Energy) > 1e-9 {
				t.Fatalf("%v: best %g, exhaustive ground %g", kind, best.Energy, want.Energy)
			}
			// QAOA samples from a shallow circuit; require it close on a
			// 6-spin instance rather than exact.
			if kind == BackendQAOA && best.Energy > want.Energy+1e-9 && mean == best.Energy {
				t.Fatalf("qaoa: degenerate sampling (best=mean=%g, ground %g)", best.Energy, want.Energy)
			}
			if best.Energy > mean+1e-9 {
				t.Fatalf("%v: best %g above mean %g", kind, best.Energy, mean)
			}
			again, meanAgain, err := runClassical(kind, is, init, 8, rng.New(42))
			if err != nil {
				t.Fatal(err)
			}
			if again.Energy != best.Energy || meanAgain != mean {
				t.Fatalf("%v: re-run diverged", kind)
			}
		}
	}
}

// TestRunClassicalSAMatchesOneRead pins the grouped SA backend to the
// one-read fold it replaced: every read qubo.SimulatedAnnealingFrom on
// r.Split(k) from the shared candidate, summed and minimized in read
// order.
func TestRunClassicalSAMatchesOneRead(t *testing.T) {
	checkRunClassicalOneRead(t, BackendSimulatedAnnealing, func(is *qubo.Ising, r *rng.Source, init []int8) qubo.Sample {
		return qubo.SimulatedAnnealingFrom(is, r, init, serving.sa)
	})
}

// TestRunClassicalPTMatchesOneRead is the same pin for the grouped PT
// backend: every read qubo.ParallelTempering on r.Split(k).
func TestRunClassicalPTMatchesOneRead(t *testing.T) {
	checkRunClassicalOneRead(t, BackendParallelTempering, func(is *qubo.Ising, r *rng.Source, _ []int8) qubo.Sample {
		return qubo.ParallelTempering(is, r, serving.pt)
	})
}

// checkRunClassicalOneRead compares runClassical on kind against the
// one-read fold of solve, over read counts that straddle the 8-lane
// group width.
func checkRunClassicalOneRead(t *testing.T, kind BackendKind, solve func(is *qubo.Ising, r *rng.Source, init []int8) qubo.Sample) {
	t.Helper()
	hard, err := instance.Synthesize(instance.Spec{Users: 8, Scheme: modulation.QAM16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for pi, is := range append(testProblems(t), hard.Reduction.Ising) {
		init := make([]int8, is.N)
		for i := range init {
			init[i] = int8(1 - 2*(i%2))
		}
		for _, reads := range []int{1, 7, 8, 9, 20} {
			r := rng.New(uint64(100*pi + reads))
			var want qubo.Sample
			sum := 0.0
			for k := 0; k < reads; k++ {
				s := solve(is, r.Split(uint64(k)), init)
				sum += s.Energy
				if k == 0 || s.Energy < want.Energy {
					want = s
				}
			}
			got, mean, err := runClassical(kind, is, init, reads, r)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || mean != sum/float64(reads) {
				t.Fatalf("%s, problem %d, %d reads: grouped %v (mean %g), one-read %v (mean %g)",
					kind, pi, reads, got, mean, want, sum/float64(reads))
			}
		}
	}
}

// heteroDevices is the canonical mixed pool the heterogeneous tests
// serve from: two spread QPUs, one parallel-tempering worker, one
// simulated-annealing worker.
func heteroDevices() []Device {
	return HybridDevices(2, 1, 1)
}

func TestServeHeterogeneousPool(t *testing.T) {
	reqs := uniformRequests(t, 4, 4, 300, 0)
	res, err := Serve(context.Background(), Config{
		Devices: heteroDevices(), NumReads: 4, Seed: 7,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, reqs, res)
	classical := 0
	for _, o := range res.Outcomes {
		if o.Shed {
			continue
		}
		if o.Backend == "" {
			t.Fatalf("served frame (%d,%d) missing backend label", o.Stream, o.Seq)
		}
		switch o.Source {
		case core.AnswerQuantum, core.AnswerClassicalCandidate, core.AnswerClassicalSolver:
		default:
			t.Fatalf("frame (%d,%d): unexpected source %v", o.Stream, o.Seq, o.Source)
		}
		if o.Backend != BackendQPUSim.String() {
			classical++
			if o.Source == core.AnswerQuantum {
				t.Fatalf("frame (%d,%d): classical backend %s reported a quantum answer", o.Stream, o.Seq, o.Backend)
			}
		}
	}
	if classical == 0 {
		t.Fatal("no frame landed on a classical backend (classical setup is 50 µs vs 10 ms QPU programming — they should win easy work)")
	}
	if len(res.Report.Backends) == 0 {
		t.Fatal("heterogeneous report has no backend stats")
	}
	var table bytes.Buffer
	if err := res.Report.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(table.Bytes(), []byte("parallel-tempering")) {
		t.Fatal("report table missing backend section")
	}
}

// TestServeQAOABackend runs a pool containing a QAOA statevector worker:
// small problems must serve there, and a problem above the qubit cap must
// route around it rather than fail.
func TestServeQAOABackend(t *testing.T) {
	devs := []Device{{Backend: BackendQAOA}, {SweepsPerMicrosecond: 30}}
	in, err := instance.Synthesize(instance.Spec{Users: 8, Scheme: modulation.QAM16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	big := in.Reduction.Ising // 32 spins > qaoa.MaxQubits
	reqs := uniformRequests(t, 2, 3, 200, 0)
	reqs = append(reqs, Request{
		Stream: 9, Seq: 0, Problem: big, InitialState: make([]int8, big.N),
	})
	res, err := Serve(context.Background(), Config{Devices: devs, NumReads: 3, Seed: 5}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, reqs, res)
	qaoaServed := false
	for _, o := range res.Outcomes {
		if o.Stream == 9 {
			if o.Shed {
				t.Fatal("oversized frame shed instead of routed to the QPU")
			}
			if o.Backend == BackendQAOA.String() {
				t.Fatal("32-spin frame landed on the 20-qubit QAOA backend")
			}
		}
		if o.Backend == BackendQAOA.String() {
			qaoaServed = true
		}
	}
	if !qaoaServed {
		t.Fatal("no frame served by the QAOA backend")
	}
}

// TestHomogeneousOutcomesUnchanged pins the gating: a homogeneous QPU
// pool's outcomes contain no backend labels and its report no backend
// section, so pre-heterogeneous artifacts stay byte-identical.
func TestHomogeneousOutcomesUnchanged(t *testing.T) {
	reqs := uniformRequests(t, 2, 3, 100, 0)
	res, err := Serve(context.Background(), Config{
		Devices: logicalDevices(2), NumReads: 3, Seed: 11,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(res.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(j, []byte(`"backend"`)) {
		t.Fatal("homogeneous outcomes grew a backend field")
	}
	if res.Report.Backends != nil || res.Report.Route != "" {
		t.Fatal("homogeneous report grew backend stats")
	}
	for _, d := range res.Report.Devices {
		if d.Backend != "" {
			t.Fatal("homogeneous device stats grew a backend label")
		}
	}
}
