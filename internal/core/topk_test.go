package core

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/instance"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// topKCandidatesOneRead is TopKCandidates with its restarts run one at a
// time through qubo.SimulatedAnnealing, stopping after patience restarts
// in a row add nothing — the generation loop as it stood before the
// lockstep SA group, kept as the test oracle (patience topKPatience is
// TopKCandidates' rule; 4K+16 makes the cap the only limit, the rule
// before the patience stop). It also reports, restart by restart, which
// restarts added a candidate, and why the restarts stopped.
func topKCandidatesOneRead(red *mimo.Reduction, k int, r *rng.Source, patience int) ([][]int8, []bool, topKStop) {
	is := red.Ising
	base := qubo.GreedySearchIsing(is, qubo.OrderDescending)
	cands := [][]int8{base}
	if k == 1 {
		return cands, nil, stopRestart0
	}
	type ranked struct {
		spins  []int8
		energy float64
	}
	var pool []ranked
	add := func(s []int8) bool {
		if len(s) != is.N {
			return false
		}
		for _, c := range cands {
			if spinsEqual(c, s) {
				return false
			}
		}
		cands = append(cands, s)
		pool = append(pool, ranked{spins: s, energy: is.Energy(s)})
		return true
	}
	add(qubo.GreedySearchIsing(is, qubo.OrderAscending))
	if p := red.Problem(); p != nil {
		if syms, err := (mimo.ZeroForcing{}).Detect(p); err == nil {
			if s, err := red.EncodeSymbols(syms); err == nil {
				add(s)
			}
		}
	}
	sa := r.SplitString("sa")
	var added []bool
	for idle := 0; len(pool) < k-1 && len(added) < 4*k+16 && idle < patience; {
		a := add(qubo.SimulatedAnnealing(is, sa.Split(uint64(len(added))), qubo.SAOptions{}).Spins)
		added = append(added, a)
		if a {
			idle = 0
		} else {
			idle++
		}
	}
	stop := stopFilled
	switch {
	case len(added) <= 1 && len(pool) >= k-1:
		stop = stopRestart0
	case len(pool) >= k-1:
	case len(added) == 4*k+16:
		stop = stopCapped
	default:
		stop = stopPatience
	}
	sort.SliceStable(pool, func(a, b int) bool { return pool[a].energy < pool[b].energy })
	out := make([][]int8, 1, k)
	out[0] = base
	for _, p := range pool {
		if len(out) == k {
			break
		}
		out = append(out, p.spins)
	}
	for j := 0; len(out) < k; j++ {
		out = append(out, append([]int8(nil), out[j%len(out)]...))
	}
	return out, added, stop
}

// topKStop is why a top-K call's restarts stopped.
type topKStop int

const (
	stopRestart0 topKStop = iota // the pool held K−1 candidates by restart 0
	stopFilled                   // a later restart filled the pool
	stopPatience                 // topKPatience restarts in a row added nothing
	stopCapped                   // 4K+16 restarts ran
)

// topKFrames synthesizes n ensemble-shaped frames (16-QAM, 11 dB
// Rayleigh) with the given user count.
func topKFrames(tb testing.TB, users, n int) []*mimo.Reduction {
	tb.Helper()
	n0 := channel.NoiseVarianceForSNR(11, users)
	reds := make([]*mimo.Reduction, n)
	for f := range reds {
		in, err := instance.Synthesize(instance.Spec{
			Users: users, Scheme: modulation.QAM16, Channel: channel.Rayleigh,
			NoiseVariance: n0, Seed: uint64(0x70C0 + f),
		})
		if err != nil {
			tb.Fatal(err)
		}
		reds[f] = in.Reduction
	}
	return reds
}

// plannedLanes is the number of SA lanes TopKCandidates plans on a frame
// whose one-read restarts added candidates as added records: restarts
// 1, 2, … run in groups of up to 8, each planned for no more restarts
// than the patience and the 4K+16 cap leave when it starts.
func plannedLanes(added []bool, k int) int {
	restarts := 4*k + 16
	end := min(topKPatience, restarts)
	if len(added) > 0 && added[0] {
		end = min(1+topKPatience, restarts)
	}
	lanes := 0
	for i := 1; i < len(added); {
		w := min(8, end-i)
		for j := i; j < i+w && j < len(added); j++ {
			if added[j] {
				end = min(j+1+topKPatience, restarts)
			}
		}
		lanes += w
		i += w
	}
	return lanes
}

// TestTopKCandidatesMatchesOneRead pins the grouped restart loop to the
// one-restart-at-a-time oracle at GOMAXPROCS 2, 1 and 4: the candidate
// lists must be identical. Two frame mixes:
//   - 300 4-user frames at K=4, the ensemble's shape: most stop after
//     restart 0, and most of the rest stop on the patience rule. It must
//     hold frames stopped by restart 0, by a later restart filling the
//     pool, and by the patience rule, and lanes planned past the
//     stopping restart must stay under 5% of the planned lanes.
//     GOMAXPROCS 2 runs every frame; 1 and 4 run every third.
//   - 16 8-user frames at K=8, whose larger problems leave more distinct
//     local minima: every frame runs restart groups and most fill the
//     pool inside one, so the candidates change if a group's lanes are
//     consumed out of restart order or planned past the patience.
func TestTopKCandidatesMatchesOneRead(t *testing.T) {
	for _, mix := range []struct {
		users, k, frames int
	}{{4, 4, 300}, {8, 8, 16}} {
		reds := topKFrames(t, mix.users, mix.frames)
		k := mix.k
		want := make([][][]int8, len(reds))
		var classes [stopCapped + 1]int
		planned, unused := 0, 0
		for f, red := range reds {
			var added []bool
			var stop topKStop
			want[f], added, stop = topKCandidatesOneRead(red, k, rng.New(uint64(f)), topKPatience)
			classes[stop]++
			if lanes := plannedLanes(added, k); lanes > 0 {
				planned += lanes
				unused += lanes - (len(added) - 1)
			}
		}
		t.Logf("users=%d k=%d: %d stop by restart 0, %d filled later, %d by patience, %d capped; %d lanes planned, %d unused",
			mix.users, k, classes[stopRestart0], classes[stopFilled], classes[stopPatience], classes[stopCapped], planned, unused)
		if mix.users == 4 {
			if classes[stopRestart0] == 0 || classes[stopFilled] == 0 || classes[stopPatience] == 0 {
				t.Fatal("frame mix lacks a stop class")
			}
			if unused*20 >= planned {
				t.Fatalf("%d of %d planned lanes unused, want under 5%%", unused, planned)
			}
		}
		for _, procs := range []int{2, 1, 4} {
			t.Run(fmt.Sprintf("users=%d/k=%d/gomaxprocs=%d", mix.users, k, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				step := 1
				if mix.frames > 100 && procs != 2 {
					step = 3
				}
				for f := 0; f < len(reds); f += step {
					got, err := TopKCandidates(reds[f], k, rng.New(uint64(f)))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want[f]) {
						t.Fatalf("frame %d: grouped candidates %v, one-read %v", f, got, want[f])
					}
				}
			})
		}
	}
}

// TestTopKPatienceStop pins the patience at exactly topKPatience on two
// 8-user K=8 frames, through the candidate lists alone:
//   - frame 11's pool stays short: its restarts end in exactly
//     topKPatience that add nothing, and the next restart would add one,
//     so one more restart of patience changes the list;
//   - frame 33 adds a candidate right after topKPatience−1 restarts that
//     add nothing, so one less restart of patience changes the list.
//
// TopKCandidates must return the patience rule's list on both.
func TestTopKPatienceStop(t *testing.T) {
	const k = 8
	reds := topKFrames(t, 8, 34)
	idleRun := func(added []bool, end int) int {
		n := 0
		for i := end - 1; i >= 0 && !added[i]; i-- {
			n++
		}
		return n
	}
	for _, tc := range []struct {
		frame, other int
	}{{11, topKPatience + 1}, {33, topKPatience - 1}} {
		red := reds[tc.frame]
		want, added, stop := topKCandidatesOneRead(red, k, rng.New(uint64(tc.frame)), topKPatience)
		if tc.other > topKPatience {
			if stop != stopPatience || idleRun(added, len(added)) != topKPatience {
				t.Fatalf("frame %d: stop %d with restarts %v, want a run of exactly %d idle restarts ending it",
					tc.frame, stop, added, topKPatience)
			}
		} else {
			found := false
			for i, a := range added {
				found = found || a && idleRun(added, i) == topKPatience-1
			}
			if !found {
				t.Fatalf("frame %d: restarts %v add nothing right after %d idle ones", tc.frame, added, topKPatience-1)
			}
		}
		if other, _, _ := topKCandidatesOneRead(red, k, rng.New(uint64(tc.frame)), tc.other); reflect.DeepEqual(other, want) {
			t.Fatalf("frame %d: patience %d gives the same list as %d", tc.frame, tc.other, topKPatience)
		}
		got, err := TopKCandidates(red, k, rng.New(uint64(tc.frame)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: candidates %v, patience rule %v", tc.frame, got, want)
		}
	}
}

// TestTopKPatienceKeepsGroundState checks the patience rule's quality on
// the shape it changes most, 64 8-user K=8 frames (32 spins): the top-K
// pool must contain the exact ground state at least as often as the cap
// rule's pool (the oracle with patience 4K+16). The witness is the
// sphere decoder's exact ML answer; 32 spins is past
// qubo.MaxExhaustiveVars. Every candidate's energy must be at least the
// witness's, which checks that it is the ground state.
func TestTopKPatienceKeepsGroundState(t *testing.T) {
	const frames, k = 64, 8
	if testing.Short() {
		t.Skip("64 frames of one-read restarts")
	}
	hits := map[string]int{}
	changed := 0
	for f, red := range topKFrames(t, 8, frames) {
		syms, err := (mimo.SphereDecoder{}).Detect(red.Problem())
		if err != nil {
			t.Fatal(err)
		}
		ground, err := red.EncodeSymbols(syms)
		if err != nil {
			t.Fatal(err)
		}
		e0 := red.Ising.Energy(ground)
		patience, err := TopKCandidates(red, k, rng.New(uint64(f)))
		if err != nil {
			t.Fatal(err)
		}
		capped, _, _ := topKCandidatesOneRead(red, k, rng.New(uint64(f)), 4*k+16)
		if !reflect.DeepEqual(patience, capped) {
			changed++
		}
		for rule, cands := range map[string][][]int8{"patience": patience, "cap": capped} {
			for _, c := range cands {
				if e := red.Ising.Energy(c); e < e0-1e-9*(1+math.Abs(e0)) {
					t.Fatalf("frame %d: %s candidate energy %v below the ML witness's %v", f, rule, e, e0)
				}
				if spinsEqual(c, ground) {
					hits[rule]++
					break
				}
			}
		}
	}
	t.Logf("%d of %d frames changed; ground state in the pool: patience %d, cap %d",
		changed, frames, hits["patience"], hits["cap"])
	if hits["patience"] < hits["cap"] {
		t.Fatalf("patience pools hold the ground state on %d frames, cap pools on %d", hits["patience"], hits["cap"])
	}
}

// TestTopKCandidatesConcurrentCalls runs four goroutines through the
// same frames at once, sharing each frame's reduction and RNG source, at
// GOMAXPROCS 4. Every call must return the serial call's candidates;
// under -race (make race-ensemble) it also checks that the calls share
// nothing they write. The frames include one the patience rule stops,
// so every caller runs restart groups.
func TestTopKCandidatesConcurrentCalls(t *testing.T) {
	const frames, k, callers = 12, 4, 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	reds := topKFrames(t, 4, frames)
	srcs := make([]*rng.Source, frames)
	want := make([][][]int8, frames)
	patience := 0
	for f, red := range reds {
		srcs[f] = rng.New(uint64(f))
		var err error
		if want[f], err = TopKCandidates(red, k, srcs[f]); err != nil {
			t.Fatal(err)
		}
		if _, _, stop := topKCandidatesOneRead(red, k, rng.New(uint64(f)), topKPatience); stop == stopPatience {
			patience++
		}
	}
	if patience == 0 {
		t.Fatal("frame mix has no frame the patience rule stops")
	}
	got := make([][][][]int8, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := range got {
		got[c] = make([][][]int8, frames)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f, red := range reds {
				if got[c][f], errs[c] = TopKCandidates(red, k, srcs[f]); errs[c] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for c := range got {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		for f := range reds {
			if !reflect.DeepEqual(got[c][f], want[f]) {
				t.Fatalf("caller %d frame %d: candidates %v, serial %v", c, f, got[c][f], want[f])
			}
		}
	}
}

// BenchmarkTopKCandidates times K=4 candidate generation over a fixed
// 32-frame ensemble-shaped mix (4-user 16-QAM, 11 dB Rayleigh) that
// includes frames the patience rule stops; one op is one pass over the
// mix. The record also carries the one-restart-at-a-time oracle's cost
// for one pass, timed once at set-up on the same host.
func BenchmarkTopKCandidates(b *testing.B) {
	const frames, k = 32, 4
	reds := topKFrames(b, 4, frames)
	restarts, patience := 0, 0
	start := time.Now()
	for f, red := range reds {
		_, added, stop := topKCandidatesOneRead(red, k, rng.New(uint64(f)), topKPatience)
		restarts += len(added)
		if stop == stopPatience {
			patience++
		}
	}
	oneRead := time.Since(start)
	if patience == 0 {
		b.Fatal("frame mix has no frame the patience rule stops")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f, red := range reds {
			if _, err := TopKCandidates(red, k, rng.New(uint64(f))); err != nil {
				b.Fatal(err)
			}
		}
	}
	nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if dir := os.Getenv(telemetry.BenchJSONDirEnv); dir != "" {
		procs := runtime.GOMAXPROCS(0)
		rec := telemetry.BenchRecord{
			Name:       "CoreTopKCandidatesK4",
			NsPerOp:    nsPerOp,
			Iterations: b.N,
			Config: map[string]any{
				"k": k, "frames": frames, "restarts": restarts, "patience_frames": patience,
				"one_read_ns_per_op": oneRead.Nanoseconds(), "gomaxprocs": procs,
			},
			Series: fmt.Sprintf("k=%d frames=%d restarts=%d patience=%d gomaxprocs=%d ns/op=%.0f one-read=%d",
				k, frames, restarts, patience, procs, nsPerOp, oneRead.Nanoseconds()),
		}
		if err := telemetry.WriteBenchJSON(dir, rec); err != nil {
			b.Fatal(err)
		}
	}
}
