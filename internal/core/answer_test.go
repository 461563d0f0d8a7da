package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// TestReduceLadderProperties drives Reduce over random tiny problems
// whose coarse fields make energy ties common, and checks the ladder
// against a direct reading of its rule: the answer is no worse than any
// healthy arm or candidate, the fallback rung is taken iff no arm is
// healthy, ties go to the earliest arm and then the earliest candidate,
// a winning candidate is copied rather than aliased, and Gain is set iff
// a healthy arm is strictly below every candidate.
func TestReduceLadderProperties(t *testing.T) {
	r := rng.New(12)
	spins := func(n int) []int8 {
		s := make([]int8, n)
		for i := range s {
			s[i] = r.Spin()
		}
		return s
	}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(3)
		is := qubo.NewIsing(n)
		for i := range is.H {
			is.H[i] = float64(r.Intn(3) - 1)
		}
		cands := make([][]int8, r.Intn(4))
		for c := range cands {
			cands[c] = spins(n)
		}
		if len(cands) == 0 {
			cands = append(cands, spins(n))
		}
		arms := make([]Arm, r.Intn(4))
		var firstFault error
		for i := range arms {
			if r.Intn(3) == 0 {
				arms[i].Fault = fmt.Errorf("arm %d fault", i)
				if firstFault == nil {
					firstFault = arms[i].Fault
				}
				continue
			}
			s := spins(n)
			arms[i] = Arm{Best: qubo.Sample{Spins: s, Energy: is.Energy(s)}, Source: []AnswerSource{AnswerQuantum, AnswerClassicalSolver}[r.Intn(2)]}
		}

		ans := Reduce(is, cands, arms)

		wantArm := -1
		for i, a := range arms {
			if a.Fault == nil && (wantArm < 0 || a.Best.Energy < arms[wantArm].Best.Energy) {
				wantArm = i
			}
		}
		wantCand := 0
		for c := range cands {
			if is.Energy(cands[c]) < is.Energy(cands[wantCand]) {
				wantCand = c
			}
		}
		candE := is.Energy(cands[wantCand])
		if want := wantArm >= 0 && arms[wantArm].Best.Energy < candE; ans.Gain != want {
			t.Fatalf("trial %d: gain %v, want %v (answer %g, best candidate %g)", trial, ans.Gain, want, ans.Best.Energy, candE)
		}
		for i, a := range arms {
			if a.Fault == nil && ans.Best.Energy > a.Best.Energy {
				t.Fatalf("trial %d: answer %g worse than healthy arm %d (%g)", trial, ans.Best.Energy, i, a.Best.Energy)
			}
		}
		if ans.Best.Energy > candE {
			t.Fatalf("trial %d: answer %g worse than candidate %d (%g)", trial, ans.Best.Energy, wantCand, candE)
		}
		if (ans.Source == AnswerClassicalFallback) != (wantArm < 0) {
			t.Fatalf("trial %d: source %v with healthy arm %d", trial, ans.Source, wantArm)
		}
		switch {
		case wantArm < 0:
			if !errors.Is(ans.Fault, firstFault) || (firstFault == nil) != (ans.Fault == nil) {
				t.Fatalf("trial %d: fallback fault %v, want first arm fault %v", trial, ans.Fault, firstFault)
			}
		case ans.Fault != nil:
			t.Fatalf("trial %d: healthy answer carries fault %v", trial, ans.Fault)
		}
		if wantArm >= 0 && candE >= arms[wantArm].Best.Energy {
			a := arms[wantArm]
			if ans.Source != a.Source || &ans.Best.Spins[0] != &a.Best.Spins[0] {
				t.Fatalf("trial %d: want arm %d's own sample (source %v), got %+v", trial, wantArm, a.Source, ans)
			}
			continue
		}
		if wantArm >= 0 && ans.Source != AnswerClassicalCandidate {
			t.Fatalf("trial %d: candidate %d (%g) beat the arms but source is %v", trial, wantCand, candE, ans.Source)
		}
		if !spinsEqual(ans.Best.Spins, cands[wantCand]) || ans.Best.Energy != candE {
			t.Fatalf("trial %d: answer %+v, want earliest minimum candidate %d %v", trial, ans.Best, wantCand, cands[wantCand])
		}
		if &ans.Best.Spins[0] == &cands[wantCand][0] {
			t.Fatalf("trial %d: winning candidate aliased, not copied", trial)
		}
	}
}

// TestReduceSingleArmAllocs: the single-arm serving call shape — slice
// literals around one arm and one candidate — allocates nothing when the
// arm wins; only a winning candidate pays for its copy.
func TestReduceSingleArmAllocs(t *testing.T) {
	is := qubo.NewIsing(4)
	is.H = []float64{1, 1, 1, 1}
	cand := []int8{1, 1, 1, 1}
	best := qubo.Sample{Spins: []int8{-1, -1, -1, -1}, Energy: -4}
	var ans Arm
	if got := testing.AllocsPerRun(100, func() {
		ans = Reduce(is, [][]int8{cand}, []Arm{{Best: best, Source: AnswerQuantum}})
	}); got != 0 {
		t.Fatalf("arm-wins Reduce allocated %v times per call", got)
	}
	if ans.Source != AnswerQuantum || !ans.Gain {
		t.Fatalf("source %v gain %v, want a quantum gain", ans.Source, ans.Gain)
	}
}

// FuzzParseSpGrid: the -ensemble-sp-grid flag is external input. Parsing
// must never panic, and every grid it accepts must pass ValidateSpGrid.
func FuzzParseSpGrid(f *testing.F) {
	for _, s := range []string{"0.37,0.45,0.53", "0.45", "", ",,", "0.5,0.5", "1", "NaN", " 0.3 , 0.4 "} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		grid, err := ParseSpGrid(s)
		if err != nil {
			if grid != nil {
				t.Fatalf("ParseSpGrid(%q) returned %v alongside error %v", s, grid, err)
			}
			return
		}
		if err := ValidateSpGrid(grid); err != nil {
			t.Fatalf("ParseSpGrid(%q) accepted %v, which ValidateSpGrid rejects: %v", s, grid, err)
		}
	})
}
