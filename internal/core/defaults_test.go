package core

import (
	"testing"

	"repro/internal/annealer"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// TestZeroValueSolversRunOperatingPoint pins the defaults no golden
// exercises: each zero-valued solver must run the schedule built from
// the paper's literals (FA t_a 1 μs with its pause at s_p 0.41 for 1 μs;
// FR turning at c_p 0.7 and reversing to s_p 0.45) with its default read
// count, and — where one batch is the whole solve — draw exactly the
// reads a direct anneal of that schedule draws.
func TestZeroValueSolversRunOperatingPoint(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 6, 71)
	red := inst.Reduction
	fa, err := annealer.Forward(1, 0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := annealer.ForwardReverse(0.7, 0.45, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	direct := func(is *qubo.Ising, sc *annealer.Schedule, reads int, r *rng.Source) []qubo.Sample {
		res, err := cfg.QPU.Run(is, cfg.params(sc, nil, reads), r)
		if err != nil {
			t.Fatal(err)
		}
		return res.Samples
	}
	cases := []struct {
		name  string
		solve func(*mimo.Reduction, *rng.Source) (*Outcome, error)
		sc    *annealer.Schedule
		reads int
		// same reports whether the solve's samples are one direct anneal.
		same bool
	}{
		{"fa", (&ForwardSolver{Config: cfg}).Solve, fa, 100, true},
		{"fr", (&ForwardReverseSolver{Config: cfg}).Solve, fr, 100, true},
		{"fa+descent", (&PostProcessing{Forward: ForwardSolver{Config: cfg}}).Solve, fa, 100, true},
		{"persist", (&SamplePersistence{Config: cfg}).Solve, fa, 60, false},
	}
	for _, c := range cases {
		out, err := c.solve(red, rng.New(73))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out.ScheduleDuration != c.sc.Duration() {
			t.Fatalf("%s: schedule duration %g, want %g", c.name, out.ScheduleDuration, c.sc.Duration())
		}
		if c.same {
			want := direct(red.Ising, c.sc, c.reads, rng.New(73))
			if len(out.Samples) != len(want) {
				t.Fatalf("%s: %d samples, want %d", c.name, len(out.Samples), len(want))
			}
			for i := range want {
				if !spinsEqual(out.Samples[i].Spins, want[i].Spins) {
					t.Fatalf("%s: sample %d differs from the direct anneal", c.name, i)
				}
			}
			continue
		}
		// Persistence: round one is a direct anneal of ReadsPerRound
		// reads on the round's split; round two anneals the subproblem
		// left after clamping the spins unanimous across the better half
		// of round one.
		first := direct(red.Ising, c.sc, c.reads, rng.New(73).Split(0))
		state := make([]int8, red.NumSpins())
		for i := range state {
			state[i] = 1
		}
		vars, values, err := qubo.PersistentSpins(first, 0.5, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		clamped := make(map[int]bool)
		for k, v := range vars {
			state[v], clamped[v] = values[k], true
		}
		var free []int
		for i := range state {
			if !clamped[i] {
				free = append(free, i)
			}
		}
		sub, err := qubo.NewSubproblem(red.Ising, free, state)
		if err != nil {
			t.Fatal(err)
		}
		second := direct(sub.Ising, c.sc, c.reads, rng.New(73).Split(1))
		if n := len(out.Samples); n < len(first)+len(second) || n > 3*c.reads+1 {
			t.Fatalf("%s: %d samples, want two or three rounds of %d", c.name, n, c.reads)
		}
		for i, s := range first {
			if !spinsEqual(out.Samples[i].Spins, s.Spins) {
				t.Fatalf("%s: round-one sample %d differs from the direct anneal", c.name, i)
			}
		}
		for i, s := range second {
			if !spinsEqual(out.Samples[len(first)+i].Spins, sub.Apply(state, s.Spins)) {
				t.Fatalf("%s: round-two sample %d differs from the clamped direct anneal", c.name, i)
			}
		}
	}
}
