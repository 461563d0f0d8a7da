package core

import (
	"fmt"
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
// time through qubo.SimulatedAnnealing — the generation loop as it stood
// before the lockstep SA group, kept as the test oracle. It also reports
// how many restarts ran.
func topKCandidatesOneRead(red *mimo.Reduction, k int, r *rng.Source) ([][]int8, int) {
	is := red.Ising
	base := qubo.GreedySearchIsing(is, qubo.OrderDescending)
	cands := [][]int8{base}
	if k == 1 {
		return cands, 0
	}
	type ranked struct {
		spins  []int8
		energy float64
	}
	var pool []ranked
	add := func(s []int8) {
		if len(s) != is.N {
			return
		}
		for _, c := range cands {
			if spinsEqual(c, s) {
				return
			}
		}
		cands = append(cands, s)
		pool = append(pool, ranked{spins: s, energy: is.Energy(s)})
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
	i := 0
	for ; len(pool) < k-1 && i < 4*k+16; i++ {
		add(qubo.SimulatedAnnealing(is, sa.Split(uint64(i)), qubo.SAOptions{}).Spins)
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
	return out, i
}

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

// waveLanes is the number of SA lanes TopKCandidates computes at
// GOMAXPROCS procs on a frame whose stop rule consumed the given number
// of restarts: restarts 1 … restarts−1 run in groups of 8, the groups
// in waves of procs, and the last group is clipped at the 4K+16 cap.
func waveLanes(restarts, k, procs int) int {
	if restarts <= 1 {
		return 0
	}
	wave := 8 * procs
	return min((restarts-1+wave-1)/wave*wave, 4*k+15)
}

// TestTopKCandidatesMatchesOneRead pins the wave-parallel restart loop
// to the one-restart-at-a-time oracle at GOMAXPROCS 2, 1 and 4: the
// candidate lists must be identical. Two frame mixes:
//   - 300 4-user frames at K=4, the ensemble's shape: most stop after
//     restart 0 and most of the rest hit the restart cap. GOMAXPROCS 2
//     runs them all, and lanes computed past the stopping restart must
//     stay under 5% of the lanes the waves computed; GOMAXPROCS 1 and 4
//     run every third frame.
//   - 16 8-user frames at K=8, whose larger problems leave more distinct
//     local minima: most stop inside a wave, so the candidates change if
//     a wave's groups are consumed out of restart order.
//
// Each mix must hold frames that stop inside a wave and capped frames.
func TestTopKCandidatesMatchesOneRead(t *testing.T) {
	for _, mix := range []struct {
		users, k, frames int
	}{{4, 4, 300}, {8, 8, 16}} {
		reds := topKFrames(t, mix.users, mix.frames)
		k := mix.k
		want := make([][][]int8, len(reds))
		restarts := make([]int, len(reds))
		for f, red := range reds {
			want[f], restarts[f] = topKCandidatesOneRead(red, k, rng.New(uint64(f)))
		}
		for _, procs := range []int{2, 1, 4} {
			t.Run(fmt.Sprintf("users=%d/k=%d/gomaxprocs=%d", mix.users, k, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				step := 1
				if mix.frames > 100 && procs != 2 {
					step = 3
				}
				var first, mid, capped, computed, unused int
				for f := 0; f < len(reds); f += step {
					got, err := TopKCandidates(reds[f], k, rng.New(uint64(f)))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want[f]) {
						t.Fatalf("frame %d (%d restarts): wave candidates %v, one-read %v", f, restarts[f], got, want[f])
					}
					if lanes := waveLanes(restarts[f], k, procs); lanes > 0 {
						computed += lanes
						unused += lanes - (restarts[f] - 1)
					}
					switch {
					case restarts[f] <= 1:
						first++
					case restarts[f] == 4*k+16:
						capped++
					default:
						mid++
					}
				}
				t.Logf("%d stop by restart 0, %d in between, %d capped; %d lanes computed, %d unused",
					first, mid, capped, computed, unused)
				if capped == 0 || mid == 0 {
					t.Fatalf("frame mix lacks capped (%d) or in-between (%d) frames", capped, mid)
				}
				if mix.users == 4 && procs == 2 && unused*20 >= computed {
					t.Fatalf("%d of %d computed lanes unused, want under 5%%", unused, computed)
				}
			})
		}
	}
}

// TestTopKCandidatesConcurrentCalls runs four goroutines through the
// same frames at once, sharing each frame's reduction and RNG source, at
// GOMAXPROCS 4 so every call's waves fan out too. Every call must return
// the serial call's candidates; under -race (make race-ensemble) it also
// checks that the waves and the calls share nothing they write.
func TestTopKCandidatesConcurrentCalls(t *testing.T) {
	const frames, k, callers = 12, 4, 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	reds := topKFrames(t, 4, frames)
	srcs := make([]*rng.Source, frames)
	want := make([][][]int8, frames)
	capped := 0
	for f, red := range reds {
		srcs[f] = rng.New(uint64(f))
		var err error
		if want[f], err = TopKCandidates(red, k, srcs[f]); err != nil {
			t.Fatal(err)
		}
		if _, n := topKCandidatesOneRead(red, k, rng.New(uint64(f))); n == 4*k+16 {
			capped++
		}
	}
	if capped == 0 {
		t.Fatal("frame mix has no capped frame")
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
// includes frames hitting the restart cap; one op is one pass over the
// mix, in wall-clock at the running GOMAXPROCS (-cpu), which the record
// carries. The record also carries the one-restart-at-a-time oracle's
// cost for one pass, timed once at set-up on the same host.
func BenchmarkTopKCandidates(b *testing.B) {
	const frames, k = 32, 4
	reds := topKFrames(b, 4, frames)
	restarts, capped := 0, 0
	start := time.Now()
	for f, red := range reds {
		_, n := topKCandidatesOneRead(red, k, rng.New(uint64(f)))
		restarts += n
		if n == 4*k+16 {
			capped++
		}
	}
	oneRead := time.Since(start)
	if capped == 0 {
		b.Fatal("frame mix has no capped frame")
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
				"k": k, "frames": frames, "restarts": restarts, "capped_frames": capped,
				"one_read_ns_per_op": oneRead.Nanoseconds(), "gomaxprocs": procs,
			},
			Series: fmt.Sprintf("k=%d frames=%d restarts=%d capped=%d gomaxprocs=%d ns/op=%.0f one-read=%d",
				k, frames, restarts, capped, procs, nsPerOp, oneRead.Nanoseconds()),
		}
		if err := telemetry.WriteBenchJSON(dir, rec); err != nil {
			b.Fatal(err)
		}
	}
}
