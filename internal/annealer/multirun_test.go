package annealer

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// multiTestProblems returns detection problems of 6, 8, 8 and 10 spins:
// two sizes share N with different problems, and on the embedded path
// the 10-spin problem needs a larger Chimera region than the rest, so a
// batch over them mixes physical sizes.
func multiTestProblems(t *testing.T) []*qubo.Ising {
	t.Helper()
	specs := []instance.Spec{
		{Users: 3, Scheme: modulation.QPSK, Seed: 1},
		{Users: 4, Scheme: modulation.QPSK, Seed: 2},
		{Users: 2, Scheme: modulation.QAM16, Seed: 3},
		{Users: 5, Scheme: modulation.QPSK, Seed: 4},
	}
	out := make([]*qubo.Ising, len(specs))
	for i, sp := range specs {
		in, err := instance.Synthesize(sp)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = in.Reduction.Ising
	}
	return out
}

// multiTestRuns builds a batch of runs cycling over problems — so the
// batch repeats problem pointers as well as mixing distinct ones — whose
// read counts (1, 3, 4, 5, 12) straddle the lockstep group edges, each
// with its own initial state and stream seed.
func multiTestRuns(problems []*qubo.Ising, seeds []uint64) []MultiRun {
	counts := []int{1, 3, 4, 5, 12}
	runs := make([]MultiRun, len(seeds))
	for i := range runs {
		is := problems[i%len(problems)]
		init := make([]int8, is.N)
		for k := range init {
			init[k] = int8(1 - 2*((k*(i+1)+i)/3%2))
		}
		runs[i] = MultiRun{Problem: is, InitialState: init, NumReads: counts[i%len(counts)], Rng: rng.New(seeds[i])}
	}
	return runs
}

// TestRunMultiMatchesSequential: packing runs into shared lockstep
// groups and sharing compiles cannot change an answer — every run's
// result (or fault) must reflect.DeepEqual the standalone Lease.Run call
// with the same (problem, init, reads, rng), on the logical, the
// chain-embedded and the default (logical) QPU lease paths, across mixed
// problem sizes, read counts straddling group edges, ICE, every soft
// fault plus programming failures, and parallelism 1 and 4.
func TestRunMultiMatchesSequential(t *testing.T) {
	problems := multiTestProblems(t)
	sc, err := Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := map[string]FaultModel{
		"clean": {},
		"faulty": {ProgrammingFailureRate: 0.3, ReadTimeoutRate: 0.25,
			ChainBreakStormRate: 0.2, CalibrationDriftRate: 0.2},
	}
	for _, path := range []string{"logical", "embedded", "qpu-logical"} {
		t.Run(path, func(t *testing.T) {
			for fname, fm := range faults {
				for _, par := range []int{1, 4} {
					p := Params{
						Schedule: sc, NumReads: 8, SweepsPerMicrosecond: 30,
						ICE: ICE{SigmaH: 0.02, SigmaJ: 0.01}, Faults: fm, Parallelism: par,
					}
					l, err := NewLease(p)
					switch path {
					case "embedded":
						l, err = chainQPU().Lease(p)
					case "qpu-logical":
						l, err = NewQPU2000Q().Lease(p)
					}
					if err != nil {
						t.Fatal(err)
					}
					seeds := make([]uint64, 10)
					for i := range seeds {
						seeds[i] = 100 + uint64(i)
					}
					runs := multiTestRuns(problems, seeds)
					results, errs, err := l.RunMulti(runs)
					if err != nil {
						t.Fatal(err)
					}
					faulted := 0
					for i, ru := range runs {
						want, wantErr := l.Run(ru.Problem, ru.InitialState, ru.NumReads, rng.New(seeds[i]))
						if !reflect.DeepEqual(want, results[i]) || !reflect.DeepEqual(wantErr, errs[i]) {
							t.Fatalf("%s/%s/par=%d run %d diverges from standalone Lease.Run (err %v vs %v)",
								path, fname, par, i, errs[i], wantErr)
						}
						if errs[i] != nil {
							faulted++
						}
					}
					if fname == "faulty" && (faulted == 0 || faulted == len(runs)) {
						t.Fatalf("%s/par=%d: want a mixed batch, got %d of %d runs faulted", path, par, faulted, len(runs))
					}
				}
			}
		})
	}
}

// TestRunMultiSharesCompiles: a batch that mixes repeated problem
// pointers, distinct problems, and a content-equal copy of one of them
// compiles each distinct POINTER exactly once — runs share compiled
// artifacts iff they carry the same *qubo.Ising — and every run still
// reflect.DeepEquals its standalone Lease.Run call.
func TestRunMultiSharesCompiles(t *testing.T) {
	problems := multiTestProblems(t)
	problems = append(problems, problems[1].Clone()) // equal content, own pointer
	sc, err := Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"logical", "embedded"} {
		t.Run(path, func(t *testing.T) {
			p := Params{Schedule: sc, NumReads: 4, SweepsPerMicrosecond: 30, ICE: ICE{SigmaH: 0.02}}
			l, err := NewLease(p)
			if path == "embedded" {
				l, err = chainQPU().Lease(p)
			}
			if err != nil {
				t.Fatal(err)
			}
			// Problems 3, 1, 4 (1's copy), 1, 0, 3, 1, 0: repeats both
			// adjacent to and apart from their first appearance.
			var ordered []*qubo.Ising
			seeds := make([]uint64, 8)
			for i, pi := range []int{3, 1, 4, 1, 0, 3, 1, 0} {
				ordered = append(ordered, problems[pi])
				seeds[i] = 40 + uint64(i)
			}
			runs := multiTestRuns(ordered, seeds)
			rs, _, err := l.multiRuns(runs)
			if err != nil {
				t.Fatal(err)
			}
			compiles := map[*qubo.CSR]bool{}
			for i := range rs {
				compiles[rs[i].pr] = true
				for j := range rs {
					if shared := rs[i].pr == rs[j].pr; shared != (runs[i].Problem == runs[j].Problem) {
						t.Fatalf("runs %d and %d: shared compile %v, same problem pointer %v",
							i, j, shared, runs[i].Problem == runs[j].Problem)
					}
				}
			}
			if len(compiles) != 4 {
				t.Fatalf("%d compiles for 4 distinct problem pointers", len(compiles))
			}
			results, errs, err := l.RunMulti(runs)
			if err != nil {
				t.Fatal(err)
			}
			for i, ru := range runs {
				want, wantErr := l.Run(ru.Problem, ru.InitialState, ru.NumReads, rng.New(seeds[i]))
				if !reflect.DeepEqual(want, results[i]) || !reflect.DeepEqual(wantErr, errs[i]) {
					t.Fatalf("run %d diverges from standalone Lease.Run (err %v vs %v)", i, errs[i], wantErr)
				}
			}
		})
	}
}

// TestRunMultiTelemetry: with a tracer and a registry attached, one
// multi-run call emits the same trace (in telemetry.SortRecords order)
// and the same metric exposition as the standalone calls in run order.
// The lease runs chains, so chain-break storms reach the physical
// readout.
func TestRunMultiTelemetry(t *testing.T) {
	problems := multiTestProblems(t)
	sc, err := Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	type sinks struct {
		tr  *telemetry.Tracer
		reg *telemetry.Registry
		l   *Lease
	}
	build := func() sinks {
		s := sinks{tr: telemetry.NewTracer(), reg: telemetry.NewRegistry()}
		p := Params{
			Schedule: sc, NumReads: 8, SweepsPerMicrosecond: 30, Trace: s.tr, Metrics: s.reg,
			Faults: FaultModel{ProgrammingFailureRate: 0.2, ReadTimeoutRate: 0.25,
				ChainBreakStormRate: 0.2, CalibrationDriftRate: 0.2},
		}
		if s.l, err = chainQPU().Lease(p); err != nil {
			t.Fatal(err)
		}
		return s
	}
	multi, seq := build(), build()
	seeds := []uint64{7, 8, 9, 10, 11, 12, 13}
	if _, _, err := multi.l.RunMulti(multiTestRuns(problems, seeds)); err != nil {
		t.Fatal(err)
	}
	for _, ru := range multiTestRuns(problems, seeds) {
		seq.l.Run(ru.Problem, ru.InitialState, ru.NumReads, ru.Rng) //nolint:errcheck // faults are expected
	}
	var a, b bytes.Buffer
	if err := multi.tr.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := seq.tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("multi-run trace differs from the sequential calls' trace")
	}
	a.Reset()
	b.Reset()
	if err := multi.reg.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := seq.reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("multi-run metrics differ from the sequential calls':\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestPackReadsGroups pins the packing rule at both group widths the
// engines declare (PIMC's eight, SVMC's sixteen): runs bucketed by
// physical N in first-appearance order, runs then reads in order within
// a bucket, groups of at most the width that never span two sizes, and
// runs with an argument error left out.
func TestPackReadsGroups(t *testing.T) {
	mk := func(n, reads int) *run {
		return &run{pr: &qubo.CSR{N: n}, p: Params{NumReads: reads}}
	}
	bad := mk(5, 3)
	bad.err = fmt.Errorf("argument error")
	runs := []*run{mk(5, 3), mk(7, 9), bad, mk(5, 6), mk(7, 1), mk(5, 10)}
	type ref struct{ run, read int }
	idx := map[*run]int{}
	for i, ru := range runs {
		idx[ru] = i
	}
	for _, tc := range []struct {
		width int
		want  [][]ref
	}{
		{lockstepWidth, [][]ref{
			{{0, 0}, {0, 1}, {0, 2}, {3, 0}, {3, 1}, {3, 2}, {3, 3}, {3, 4}},
			{{3, 5}, {5, 0}, {5, 1}, {5, 2}, {5, 3}, {5, 4}, {5, 5}, {5, 6}},
			{{5, 7}, {5, 8}, {5, 9}},
			{{1, 0}, {1, 1}, {1, 2}, {1, 3}, {1, 4}, {1, 5}, {1, 6}, {1, 7}},
			{{1, 8}, {4, 0}},
		}},
		{svmcGroupWidth, [][]ref{
			{{0, 0}, {0, 1}, {0, 2}, {3, 0}, {3, 1}, {3, 2}, {3, 3}, {3, 4}, {3, 5},
				{5, 0}, {5, 1}, {5, 2}, {5, 3}, {5, 4}, {5, 5}, {5, 6}},
			{{5, 7}, {5, 8}, {5, 9}},
			{{1, 0}, {1, 1}, {1, 2}, {1, 3}, {1, 4}, {1, 5}, {1, 6}, {1, 7}, {1, 8}, {4, 0}},
		}},
	} {
		refs, groups := packReads(runs, tc.width)
		var got [][]ref
		for g := 0; g+1 < len(groups); g++ {
			var grp []ref
			for _, r := range refs[groups[g]:groups[g+1]] {
				grp = append(grp, ref{idx[r.ru], r.read})
			}
			got = append(got, grp)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("width %d: packed groups %v, want %v", tc.width, got, tc.want)
		}
	}
	if groupWidth(SVMC{}) != svmcGroupWidth || groupWidth(SVMC{TFMoves: true}) != svmcGroupWidth ||
		groupWidth(PIMC{Slices: 8}) != lockstepWidth {
		t.Fatal("engines declare the wrong group widths")
	}
}

// TestRunMultiIsolatesArmFaults: a faulted arm reports its error in
// errs without aborting the batch or poisoning its neighbours.
func TestRunMultiIsolatesArmFaults(t *testing.T) {
	is := prepTestProblems(t, 1)[0]
	sc, err := Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLease(Params{
		Schedule: sc, NumReads: 5, SweepsPerMicrosecond: 30,
		Faults: FaultModel{ProgrammingFailureRate: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	init := make([]int8, is.N)
	for i := range init {
		init[i] = 1
	}
	runs := make([]MultiRun, 16)
	for i := range runs {
		runs[i] = MultiRun{Problem: is, InitialState: init, NumReads: 5, Rng: rng.New(uint64(i))}
	}
	results, errs, err := l.RunMulti(runs)
	if err != nil {
		t.Fatal(err)
	}
	faulted, healthy := 0, 0
	for i := range runs {
		switch {
		case errs[i] != nil:
			if _, ok := AsFault(errs[i]); !ok {
				t.Fatalf("arm %d error %v is not a typed fault", i, errs[i])
			}
			if results[i] != nil {
				t.Fatalf("faulted arm %d still has a result", i)
			}
			faulted++
		case results[i] == nil:
			t.Fatalf("arm %d has neither result nor error", i)
		default:
			healthy++
		}
	}
	if faulted == 0 || healthy == 0 {
		t.Fatalf("want a mixed batch, got %d faulted / %d healthy", faulted, healthy)
	}
}

// TestRunMultiValidates: missing problems, empty batches, nil RNG
// streams and problems that do not compile for the lease are rejected
// up front.
func TestRunMultiValidates(t *testing.T) {
	is := prepTestProblems(t, 1)[0]
	sc, err := Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewQPU2000Q().Lease(Params{Schedule: sc, NumReads: 5, SweepsPerMicrosecond: 30})
	if err != nil {
		t.Fatal(err)
	}
	init := make([]int8, is.N)
	for i := range init {
		init[i] = 1
	}
	good := MultiRun{Problem: is, InitialState: init, NumReads: 5, Rng: rng.New(1)}
	noProblem := good
	noProblem.Problem = nil
	if _, _, err := l.RunMulti([]MultiRun{good, noProblem}); err == nil {
		t.Fatal("nil problem accepted")
	}
	if _, _, err := l.RunMulti(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	noRng := good
	noRng.Rng = nil
	if _, _, err := l.RunMulti([]MultiRun{noRng}); err == nil {
		t.Fatal("nil rng stream accepted")
	}
	for name, bad := range map[string]*qubo.Ising{
		"empty":         qubo.NewIsing(0),
		"over-capacity": qubo.NewIsing(NewQPU2000Q().MaxProblemSize() + 1),
	} {
		badRun := good
		badRun.Problem = bad
		if _, _, err := l.RunMulti([]MultiRun{good, badRun}); err == nil {
			t.Fatalf("%s problem accepted", name)
		}
	}
	// A read count past MaxReads is a per-run error, not a batch abort.
	huge := good
	huge.NumReads = MaxReads + 1
	results, errs, err := l.RunMulti([]MultiRun{huge, good})
	if err != nil || errs[0] == nil || results[0] != nil || errs[1] != nil || results[1] == nil {
		t.Fatalf("oversized run: err %v, errs %v", err, errs)
	}
}
