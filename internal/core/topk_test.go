package core

import (
	"fmt"
	"os"
	"reflect"
	"sort"
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

// TestTopKCandidatesMatchesOneRead pins the grouped restart loop to the
// one-restart-at-a-time oracle on 300 ensemble-shaped frames (4-user
// 16-QAM, 11 dB Rayleigh, K=4): the candidate lists must be identical,
// and the frame mix must include frames that stop after restart 0,
// frames that stop inside a group, and frames that hit the restart cap.
func TestTopKCandidatesMatchesOneRead(t *testing.T) {
	const frames, k = 300, 4
	n0 := channel.NoiseVarianceForSNR(11, 4)
	var first, mid, capped, grouped, unused int
	for f := 0; f < frames; f++ {
		in, err := instance.Synthesize(instance.Spec{
			Users: 4, Scheme: modulation.QAM16, Channel: channel.Rayleigh,
			NoiseVariance: n0, Seed: uint64(0x70C0 + f),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := TopKCandidates(in.Reduction, k, rng.New(uint64(f)))
		if err != nil {
			t.Fatal(err)
		}
		want, restarts := topKCandidatesOneRead(in.Reduction, k, rng.New(uint64(f)))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d (%d restarts): grouped candidates %v, one-read %v", f, restarts, got, want)
		}
		if restarts > 1 {
			// Restarts 1 … restarts−1 ran in groups of 8, the last one
			// clipped at the cap; lanes past the stopping restart were
			// computed and discarded.
			lanes := min((restarts-1+7)/8*8, 4*k+15)
			grouped += lanes
			unused += lanes - (restarts - 1)
		}
		switch {
		case restarts <= 1:
			first++
		case restarts == 4*k+16:
			capped++
		default:
			mid++
		}
	}
	t.Logf("%d frames: %d stop by restart 0, %d in between, %d capped; %d grouped lanes, %d unused",
		frames, first, mid, capped, grouped, unused)
	if capped == 0 || mid == 0 {
		t.Fatalf("frame mix lacks capped (%d) or in-between (%d) frames", capped, mid)
	}
}

// BenchmarkTopKCandidates times K=4 candidate generation over a fixed
// 32-frame ensemble-shaped mix (4-user 16-QAM, 11 dB Rayleigh) that
// includes frames hitting the restart cap; one op is one pass over the
// mix. The record also carries the one-restart-at-a-time oracle's cost
// for one pass, timed once at set-up on the same host.
func BenchmarkTopKCandidates(b *testing.B) {
	const frames, k = 32, 4
	n0 := channel.NoiseVarianceForSNR(11, 4)
	reds := make([]*mimo.Reduction, frames)
	for f := range reds {
		in, err := instance.Synthesize(instance.Spec{
			Users: 4, Scheme: modulation.QAM16, Channel: channel.Rayleigh,
			NoiseVariance: n0, Seed: uint64(0x70C0 + f),
		})
		if err != nil {
			b.Fatal(err)
		}
		reds[f] = in.Reduction
	}
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
		rec := telemetry.BenchRecord{
			Name:       "CoreTopKCandidatesK4",
			NsPerOp:    nsPerOp,
			Iterations: b.N,
			Config: map[string]any{
				"k": k, "frames": frames, "restarts": restarts, "capped_frames": capped,
				"one_read_ns_per_op": oneRead.Nanoseconds(),
			},
			Series: fmt.Sprintf("k=%d frames=%d restarts=%d capped=%d ns/op=%.0f one-read=%d",
				k, frames, restarts, capped, nsPerOp, oneRead.Nanoseconds()),
		}
		if err := telemetry.WriteBenchJSON(dir, rec); err != nil {
			b.Fatal(err)
		}
	}
}
