package validate

import (
	"errors"
	"reflect"
	"testing"
)

// TestSequentialStopRule drives the one stop rule with fake rounds and a
// fake judge: estimate i passes once decideAt[i] rounds are drawn (0:
// never), and every round spends roundReads.
func TestSequentialStopRule(t *testing.T) {
	type want struct {
		rounds  int // rounds drawn
		judged  int // judge calls
		reads   int
		batches int
		verdict []Verdict
		stop    []string
	}
	cases := []struct {
		name       string
		decideAt   []int
		warmup     int
		cap        int
		spent      int
		roundReads int
		maxReads   int
		want       want
	}{
		{
			name: "decides at round k", decideAt: []int{3, 2},
			roundReads: 10, maxReads: 1000,
			want: want{rounds: 3, judged: 3, reads: 30, batches: 3,
				verdict: []Verdict{Pass, Pass}, stop: []string{"ci-cleared", "ci-cleared"}},
		},
		{
			// The budget is spent after round 1, but the warm-up rounds
			// are drawn anyway and judged only after the third.
			name: "warm-up is neither judged nor budget-checked", decideAt: []int{1},
			warmup: 3, roundReads: 10, maxReads: 5,
			want: want{rounds: 3, judged: 1, reads: 30, batches: 1,
				verdict: []Verdict{Pass}, stop: []string{"ci-cleared"}},
		},
		{
			name: "round cap marks only undecided estimates", decideAt: []int{4, 0},
			warmup: 3, cap: 6, roundReads: 10, maxReads: 1000,
			want: want{rounds: 6, judged: 4, reads: 60, batches: 4,
				verdict: []Verdict{Pass, Inconclusive}, stop: []string{"ci-cleared", "budget-exhausted"}},
		},
		{
			// 25 probe reads + 2 rounds = 45; a third round would make 55.
			// Without the probe the same budget allows five rounds.
			name: "budget counts reads spent before the loop", decideAt: []int{0},
			spent: 25, roundReads: 10, maxReads: 50,
			want: want{rounds: 2, judged: 2, reads: 45, batches: 2,
				verdict: []Verdict{Inconclusive}, stop: []string{"budget-exhausted"}},
		},
		{
			name: "budget without pre-loop reads", decideAt: []int{0},
			roundReads: 10, maxReads: 50,
			want: want{rounds: 5, judged: 5, reads: 50, batches: 5,
				verdict: []Verdict{Inconclusive}, stop: []string{"budget-exhausted"}},
		},
		{
			// A replicate claim (fleet-speedup's round size) that never
			// decides stops at MaxReads after its first judgment instead of
			// drawing on to the round cap.
			name: "undecided replicate claim stops at MaxReads", decideAt: []int{0},
			warmup: replicateWarmup, cap: replicateCap, roundReads: 1440, maxReads: 5000,
			want: want{rounds: 3, judged: 1, reads: 4320, batches: 1,
				verdict: []Verdict{Inconclusive}, stop: []string{"budget-exhausted"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv(Options{MaxReads: tc.maxReads})
			var ks []int
			judged := 0
			round := func(k int) (int, error) {
				ks = append(ks, k)
				return tc.roundReads, nil
			}
			judge := func() []Estimate {
				judged++
				ests := make([]Estimate, len(tc.decideAt))
				for i, at := range tc.decideAt {
					if at > 0 && len(ks) >= at {
						ests[i].Verdict, ests[i].Stop = Pass, "ci-cleared"
					}
				}
				return ests
			}
			ests, reads, err := env.sequential(seqTest{round: round, judge: judge,
				warmup: tc.warmup, cap: tc.cap, spent: tc.spent})
			if err != nil {
				t.Fatal(err)
			}
			w := tc.want
			if len(ks) != w.rounds || judged != w.judged || reads != w.reads {
				t.Fatalf("drew %d rounds, judged %d, %d reads; want %d, %d, %d",
					len(ks), judged, reads, w.rounds, w.judged, w.reads)
			}
			for k, got := range ks {
				if got != k {
					t.Fatalf("round indices %v, want 0..%d", ks, w.rounds-1)
				}
			}
			var verdicts []Verdict
			var stops []string
			for _, e := range ests {
				if e.Batches != w.batches {
					t.Fatalf("Batches = %d, want %d", e.Batches, w.batches)
				}
				verdicts = append(verdicts, e.Verdict)
				stops = append(stops, e.Stop)
			}
			if !reflect.DeepEqual(verdicts, w.verdict) || !reflect.DeepEqual(stops, w.stop) {
				t.Fatalf("verdicts %v stops %v, want %v %v", verdicts, stops, w.verdict, w.stop)
			}
		})
	}
}

// A failing round aborts the test with the reads spent before it.
func TestSequentialRoundError(t *testing.T) {
	boom := errors.New("boom")
	round := func(k int) (int, error) {
		if k == 1 {
			return 0, boom
		}
		return 10, nil
	}
	judge := func() []Estimate { return []Estimate{{}} }
	ests, reads, err := NewEnv(Options{}).sequential(seqTest{round: round, judge: judge, spent: 5})
	if !errors.Is(err, boom) || ests != nil || reads != 15 {
		t.Fatalf("got %v, %d reads, %v; want nil, 15, boom", ests, reads, err)
	}
}
