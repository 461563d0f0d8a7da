package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// workload is one serving traffic mix. The benchmark owns input
// generation: setup derives every channel draw, symbol, arrival, and ML
// witness from the seed, and the program under test only ever sees the
// requests a pass builds from them.
type workload interface {
	// setup synthesizes the inputs of every frame.
	setup(seed uint64) error
	// size is the frame count of one full pass.
	size() int
	// pass serves frames [0, n) (ordered by arrival) end to end — reduce,
	// classical candidate, serve, post-process — with `workers` busy
	// goroutines. A non-nil ledger times each layer call from outside.
	pass(n, workers int, lg *ledger) (*passOut, error)
}

// workloadInfo registers one workload under its benchmark name.
type workloadInfo struct {
	name, why string
	build     func(small bool) workload
}

// workloads lists every workload in BENCHMARK.json order. small shrinks a
// workload to a few dozen frames for the smoke test.
var workloads = []workloadInfo{
	{"uplink-16qam", "8-user 16-QAM frames on fresh channels over a 4-QPU fleet: SVMC kernel-bound, prepared-problem cache never hits",
		func(small bool) workload { return newFleetWorkload(uplinkSpec(small)) }},
	{"city-monitored", "11k tiny C-RAN frames with trace, metrics and SLO monitor attached: telemetry- and SLO-bound",
		func(small bool) workload { return newCityWorkload(citySpec(small)) }},
	{"ensemble-coded", "top-K x s_p ensemble arms fused into soft Viterbi: the only fan-out, fusion and decode path; arms share a cached problem",
		func(small bool) workload { return newEnsembleWorkload(ensembleSpec(small)) }},
	{"hybrid-deadline", "easy 5 ms and hard 60 ms frames on a hybrid QPU/PT/SA pool: the only router and classical-backend path",
		func(small bool) workload { return newFleetWorkload(hybridSpec(small)) }},
}

func lookupWorkload(name string) (workloadInfo, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadInfo{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// frameInput is one frame as the base station receives it, plus the
// benchmark's ground truth for scoring the answer.
type frameInput struct {
	stream, seq       int
	arrival, deadline float64
	problem           *mimo.Problem
	// tx is the transmitted symbol vector (uncoded BER reference).
	tx []complex128
	// ground is the exact-ML Ising energy of the frame's reduction.
	ground float64
}

// frameOutcome is one frame's fate, normalized across the serving APIs.
type frameOutcome struct {
	stream, seq               int
	arrival, deadline, finish float64
	shed                      bool
	source                    core.AnswerSource
	best                      qubo.Sample
	// candEnergy is the best classical candidate's energy: a valid answer
	// is never worse.
	candEnergy float64
	// ground is the frame's ML witness energy.
	ground float64
}

// passOut is one pass's results: normalized outcomes, the quality tally,
// the raw serve artifacts the traced run replays, and per-layer counts
// the serving layers expose.
type passOut struct {
	frames   []frameOutcome
	problems []*qubo.Ising // each frame's reduced problem, for validation
	bitErrs  int
	bits     int
	// dashboardServed is the served count the SLO dashboard reports (−1
	// when no monitor is attached).
	dashboardServed int
	// extra is workload-specific bytes folded into the outcome digest
	// (fused LLRs, decoded info bits).
	extra []byte

	// arms are the fleet-level outcomes of every serve (one per ensemble
	// arm), on a pool of `devices` devices.
	arms      []armOutcome
	devices   int
	prepStats prepStats
	// packets counts soft-decoded packets (ensemble only).
	packets int
	// Serving-layer counters read from the reports.
	routeFallbacks int
	failovers      int
	routerShed     int
	shardAdmitted  []int
	// City telemetry: records and exported bytes, and (traced passes
	// only) the live heap the trace and monitor retain.
	records    int
	jsonlBytes int64
	retainedMB float64
	// replay lists the device work inside the pass's serve and the
	// fusions it ran, for the traced run to re-execute.
	replay func() ([]deviceJob, []fuseJob)
	// serveAgain, when set, re-runs the pass's serve with telemetry
	// detached, for the traced run's overhead figure.
	serveAgain func() error
}

// armOutcome is one fleet-level outcome tagged with its pool (the shard
// for the C-RAN tier, 0 for a plain fleet).
type armOutcome struct {
	pool int
	fleet.Outcome
}

type prepStats struct{ hits, misses uint64 }

// poissonArrivals draws n arrival instants (μs) of a Poisson process at
// fps frames per second.
func poissonArrivals(r *rng.Source, n int, fps float64) []float64 {
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += -math.Log(1-r.Float64()) / fps * 1e6
		out[i] = t
	}
	return out
}

// sortFrames orders inputs by (arrival, stream, seq): any prefix is then
// an arrival-time prefix, which keeps per-stream FIFO intact.
func sortFrames(fs []frameInput) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.arrival != b.arrival {
			return a.arrival < b.arrival
		}
		if a.stream != b.stream {
			return a.stream < b.stream
		}
		return a.seq < b.seq
	})
}

// reduceAll runs the ML-to-Ising reduction over every frame.
func reduceAll(in []frameInput, lg *ledger) ([]*mimo.Reduction, error) {
	reds := make([]*mimo.Reduction, len(in))
	err := lg.time(layerReduce, func() error {
		for i := range in {
			red, err := mimo.Reduce(in[i].problem)
			if err != nil {
				return fmt.Errorf("reduce frame (%d, %d): %w", in[i].stream, in[i].seq, err)
			}
			reds[i] = red
		}
		return nil
	})
	return reds, err
}

// greedyAll computes each frame's classical candidate.
func greedyAll(reds []*mimo.Reduction, lg *ledger) [][]int8 {
	cands := make([][]int8, len(reds))
	lg.time(layerGreedy, func() error {
		for i, red := range reds {
			cands[i] = qubo.GreedySearchIsing(red.Ising, qubo.OrderDescending)
		}
		return nil
	})
	return cands
}

// decodeAll maps each frame's answer back to symbols.
func decodeAll(reds []*mimo.Reduction, answers []qubo.Sample, lg *ledger) [][]complex128 {
	syms := make([][]complex128, len(reds))
	lg.time(layerDecode, func() error {
		for i, red := range reds {
			if len(answers[i].Spins) == red.Ising.N {
				syms[i] = red.DecodeSpins(answers[i].Spins)
			}
		}
		return nil
	})
	return syms
}

// uncodedBitErrors counts Gray-label bit errors of decoded symbols against
// the transmitted ones; a frame with no decodable answer counts every bit.
func uncodedBitErrors(s modulation.Scheme, est, tx []complex128) (errs, bits int) {
	bits = len(tx) * s.BitsPerSymbol()
	if len(est) != len(tx) {
		return bits, bits
	}
	return mimo.BitErrors(s, est, tx), bits
}

// fleetOutcomes normalizes fleet outcomes against their inputs.
func fleetOutcomes(in []frameInput, cands [][]int8, reds []*mimo.Reduction, outs []fleet.Outcome) ([]frameOutcome, error) {
	index := make(map[[2]int]int, len(in))
	for i := range in {
		index[[2]int{in[i].stream, in[i].seq}] = i
	}
	res := make([]frameOutcome, len(in))
	seen := 0
	for _, o := range outs {
		i, ok := index[[2]int{o.Stream, o.Seq}]
		if !ok {
			return nil, fmt.Errorf("serve returned unknown frame (%d, %d)", o.Stream, o.Seq)
		}
		seen++
		res[i] = frameOutcome{
			stream: o.Stream, seq: o.Seq,
			arrival: o.Arrival, deadline: in[i].deadline, finish: o.Finish,
			shed: o.Shed, source: o.Source, best: o.Best,
			candEnergy: reds[i].Ising.Energy(cands[i]),
			ground:     in[i].ground,
		}
	}
	if seen != len(in) {
		return nil, fmt.Errorf("serve returned %d outcomes for %d frames", seen, len(in))
	}
	return res, nil
}

// invalidAnswer explains why a frame's answer is not a valid detection
// ("" when it is): the right length, an energy that matches the
// problem's own recomputation, and never worse than the classical
// candidate the frame carried.
func invalidAnswer(f frameOutcome, is *qubo.Ising) string {
	if len(f.best.Spins) != is.N {
		return fmt.Sprintf("answer has %d spins for a %d-spin problem", len(f.best.Spins), is.N)
	}
	for _, s := range f.best.Spins {
		if s != 1 && s != -1 {
			return fmt.Sprintf("answer spin %d is not ±1", s)
		}
	}
	e := is.Energy(f.best.Spins)
	if math.Abs(e-f.best.Energy) > 1e-9*math.Max(1, math.Abs(e)) {
		return fmt.Sprintf("answer energy %g, recomputed %g", f.best.Energy, e)
	}
	if e > f.candEnergy+1e-9*math.Max(1, math.Abs(f.candEnergy)) {
		return fmt.Sprintf("answer energy %g worse than the candidate's %g", e, f.candEnergy)
	}
	return ""
}

// digest fingerprints a pass's outcomes bit for bit; any two passes over
// the same inputs must agree at any worker count.
func (p *passOut) digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, f := range p.frames {
		put(uint64(f.stream))
		put(uint64(f.seq))
		put(math.Float64bits(f.finish))
		put(uint64(f.source))
		if f.shed {
			put(1)
		} else {
			put(0)
		}
		put(math.Float64bits(f.best.Energy))
		for _, s := range f.best.Spins {
			h.Write([]byte{byte(s)})
		}
	}
	for _, a := range p.arms {
		put(uint64(a.pool))
		put(uint64(a.Stream))
		put(uint64(a.Seq))
		put(uint64(a.Device))
		put(uint64(a.Batch))
		put(math.Float64bits(a.Start))
	}
	h.Write(p.extra)
	return hex.EncodeToString(h.Sum(nil))[:32]
}
