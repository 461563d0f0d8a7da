package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// ensembleShape shapes the coded uplink detected by flexible-parallelism
// ensembles: each packet's info bits are convolutionally coded and sent
// over several channel uses of a Rayleigh MIMO channel; every use is one
// serving frame fanned into K candidates × the s_p grid of arms, fused
// into per-bit LLRs, and the packet is soft-Viterbi decoded.
type ensembleShape struct {
	streams, packets int // packets per stream
	users            int
	scheme           modulation.Scheme
	snrDB            float64
	infoLen          int
	k                int
	grid             []float64
	readsPerArm      int
	batchMax         int
	usesPerSecond    float64 // offered over all streams
	deadline         float64 // μs
}

// ensembleSpec is -fig ensemble's K=4 × default-grid variant at serving
// scale: 16 streams × 16 packets × 4 uses of 4-user 16-QAM at 11 dB.
func ensembleSpec(small bool) ensembleShape {
	s := ensembleShape{
		streams: 16, packets: 16,
		users: 4, scheme: modulation.QAM16, snrDB: 11, infoLen: 26,
		k: 4, grid: core.DefaultSpGrid(), readsPerArm: 4, batchMax: 12,
		usesPerSecond: 120, deadline: 60_000,
	}
	if small {
		s.streams, s.packets = 3, 1
	}
	return s
}

// packet is one coded packet's ground truth; its channel uses are the
// frames (stream, seq0 … seq0+uses−1).
type packet struct {
	stream, seq0 int
	info, coded  []int8
}

type ensembleWorkload struct {
	spec    ensembleShape
	code    *coding.ConvCode
	seed    uint64
	in      []frameInput
	packets []packet
}

func newEnsembleWorkload(spec ensembleShape) *ensembleWorkload {
	return &ensembleWorkload{spec: spec, code: coding.NewConvCode133171()}
}

func (w *ensembleWorkload) size() int { return len(w.in) }

func (w *ensembleWorkload) usesPerPacket() int {
	per := w.spec.users * w.spec.scheme.BitsPerSymbol()
	return (w.code.CodedLength(w.spec.infoLen) + per - 1) / per
}

func (w *ensembleWorkload) setup(seed uint64) error {
	sp := w.spec
	w.seed = seed
	w.in, w.packets = w.in[:0], w.packets[:0]
	root := rng.New(seed)
	n0 := channel.NoiseVarianceForSNR(sp.snrDB, sp.users)
	bps := sp.scheme.BitsPerSymbol()
	uses := w.usesPerPacket()
	for s := 0; s < sp.streams; s++ {
		arrivals := poissonArrivals(root.SplitString("arrivals").Split(uint64(s)),
			sp.packets*uses, sp.usesPerSecond/float64(sp.streams))
		for p := 0; p < sp.packets; p++ {
			pr := root.SplitString("packet").Split(uint64(s)).Split(uint64(p))
			info := make([]int8, sp.infoLen)
			ir := pr.SplitString("info")
			for i := range info {
				if ir.Bool() {
					info[i] = 1
				}
			}
			coded, err := w.code.Encode(info)
			if err != nil {
				return err
			}
			pkt := packet{stream: s, seq0: p * uses, info: info, coded: coded}
			padded := append([]int8(nil), coded...)
			for len(padded) < uses*sp.users*bps {
				padded = append(padded, 0)
			}
			for u := 0; u < uses; u++ {
				seg := padded[u*sp.users*bps : (u+1)*sp.users*bps]
				f, err := w.synthesizeUse(seg, n0, pr.Split(uint64(u)))
				if err != nil {
					return err
				}
				f.stream, f.seq = s, pkt.seq0+u
				f.arrival, f.deadline = arrivals[f.seq], sp.deadline
				w.in = append(w.in, f)
			}
			w.packets = append(w.packets, pkt)
		}
	}
	sortFrames(w.in)
	return nil
}

// synthesizeUse transmits one channel use's coded bits and witnesses its
// exact-ML energy with the sphere decoder.
func (w *ensembleWorkload) synthesizeUse(bits []int8, n0 float64, r *rng.Source) (frameInput, error) {
	sp := w.spec
	bps := sp.scheme.BitsPerSymbol()
	x := make([]complex128, sp.users)
	for u := range x {
		sym, err := sp.scheme.ModulateBinary(bits[u*bps : (u+1)*bps])
		if err != nil {
			return frameInput{}, err
		}
		x[u] = sym
	}
	h := channel.Draw(channel.Rayleigh, r.SplitString("channel"), sp.users, sp.users)
	y := channel.Transmit(r.SplitString("noise"), h, x, n0)
	p := &mimo.Problem{H: h, Y: y, Scheme: sp.scheme}
	red, err := mimo.Reduce(p)
	if err != nil {
		return frameInput{}, err
	}
	ml, err := mimo.SphereDecoder{}.Detect(p)
	if err != nil {
		return frameInput{}, err
	}
	spins, err := red.EncodeSymbols(ml)
	if err != nil {
		return frameInput{}, err
	}
	return frameInput{problem: p, ground: red.Ising.Energy(spins)}, nil
}

func (w *ensembleWorkload) config(workers int) fleet.EnsembleConfig {
	return fleet.EnsembleConfig{
		Fleet: fleet.Config{
			Devices: fleet.DefaultDevices(4), Sp: 0.45, Tp: 1, NumReads: w.spec.readsPerArm,
			BatchMax: w.spec.batchMax, Seed: w.seed, Workers: workers,
		},
		SpGrid: w.spec.grid, Tp: 1, ReadsPerArm: w.spec.readsPerArm,
	}
}

func (w *ensembleWorkload) pass(n, workers int, lg *ledger) (*passOut, error) {
	in := w.in[:n]
	reds, err := reduceAll(in, lg)
	if err != nil {
		return nil, err
	}
	cands := make([][][]int8, n)
	if err := lg.time(layerTopK, func() error {
		for i, f := range in {
			r := rng.New(w.seed).SplitString("topk").Split(uint64(f.stream)<<32 | uint64(f.seq))
			if cands[i], err = core.TopKCandidates(reds[i], w.spec.k, r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("top-k candidates: %w", err)
	}
	cfg := w.config(workers)
	var frames []fleet.EnsembleFrame
	lg.time(layerHarness, func() error {
		frames = make([]fleet.EnsembleFrame, n)
		for i, f := range in {
			frames[i] = fleet.EnsembleFrame{
				Stream: f.stream, Seq: f.seq, Arrival: f.arrival, Deadline: f.deadline,
				Problem: reds[i].Ising, Candidates: cands[i],
			}
		}
		return nil
	})
	var res *fleet.EnsembleResult
	if err := lg.time(layerServe, func() error {
		res, err = fleet.ServeEnsemble(context.Background(), cfg, frames)
		return err
	}); err != nil {
		return nil, fmt.Errorf("ensemble serve: %w", err)
	}

	out := &passOut{dashboardServed: -1}
	byFrame := make(map[[2]int]int, n)   // (stream, seq) → input index
	byOutcome := make(map[[2]int]int, n) // (stream, seq) → outcome index
	if err := lg.time(layerHarness, func() error {
		for i, f := range in {
			byFrame[[2]int{f.stream, f.seq}] = i
		}
		out.frames = make([]frameOutcome, n)
		out.problems = make([]*qubo.Ising, n)
		for oi, eo := range res.Outcomes {
			i, ok := byFrame[[2]int{eo.Stream, eo.Seq}]
			if !ok {
				return fmt.Errorf("ensemble serve returned unknown frame (%d, %d)", eo.Stream, eo.Seq)
			}
			byOutcome[[2]int{eo.Stream, eo.Seq}] = oi
			candE := math.Inf(1)
			for _, c := range cands[i] {
				candE = math.Min(candE, reds[i].Ising.Energy(c))
			}
			out.frames[i] = frameOutcome{
				stream: eo.Stream, seq: eo.Seq,
				arrival: in[i].arrival, deadline: in[i].deadline, finish: eo.Finish,
				shed: eo.ShedArms == res.Arms, source: eo.Source, best: eo.Best,
				candEnergy: candE, ground: in[i].ground,
			}
			out.problems[i] = reds[i].Ising
			for _, a := range eo.Arms {
				out.arms = append(out.arms, armOutcome{Outcome: a})
			}
		}
		out.prepStats = prepStats{res.Report.PrepCache.Hits, res.Report.PrepCache.Misses}
		return nil
	}); err != nil {
		return nil, err
	}
	decodeAll(reds, bestOf(out.frames), lg)

	// Soft decode every packet whose channel uses all lie in the pass.
	type pending struct {
		pkt  packet
		llrs []float64
	}
	var todo []pending
	lg.time(layerDecode, func() error {
		uses := w.usesPerPacket()
		for _, pkt := range w.packets {
			var llrs []float64
			for u := 0; u < uses; u++ {
				key := [2]int{pkt.stream, pkt.seq0 + u}
				i, ok := byFrame[key]
				if !ok {
					llrs = nil
					break
				}
				llrs = append(llrs, codedLLRs(reds[i], res.Outcomes[byOutcome[key]])...)
			}
			if llrs != nil {
				todo = append(todo, pending{pkt, llrs})
			}
		}
		return nil
	})
	decoded := make([][]int8, len(todo))
	if err := lg.time(layerViterbi, func() error {
		for j, p := range todo {
			if decoded[j], err = w.code.DecodeSoft(p.llrs[:len(p.pkt.coded)]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("soft viterbi: %w", err)
	}
	lg.time(layerHarness, func() error {
		var buf [8]byte
		for j, p := range todo {
			out.bitErrs += coding.BitErrors(p.pkt.info, decoded[j])
			out.bits += len(p.pkt.info)
			for _, b := range decoded[j] {
				out.extra = append(out.extra, byte(b))
			}
		}
		for _, eo := range res.Outcomes {
			for _, l := range eo.FusedLLRs {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(l))
				out.extra = append(out.extra, buf[:]...)
			}
		}
		return nil
	})
	out.devices = len(cfg.Fleet.Devices)
	out.packets = len(todo)
	out.replay = func() ([]deviceJob, []fuseJob) { return w.jobs(cfg, frames, res) }
	return out, nil
}

// codedLLRs maps one use's per-spin soft output onto its coded bits in
// transmit order (user-major, binary labeling). A use with no fused LLRs
// (every arm shed) contributes hard ±1 LLRs from its answer.
func codedLLRs(red *mimo.Reduction, eo fleet.EnsembleOutcome) []float64 {
	spin := eo.FusedLLRs
	if spin == nil {
		spin = make([]float64, len(eo.Best.Spins))
		for i, s := range eo.Best.Spins {
			spin[i] = float64(s)
		}
	}
	bps := red.Scheme().BitsPerSymbol()
	out := make([]float64, 0, red.Users()*bps)
	for u := 0; u < red.Users(); u++ {
		for b := 0; b < bps; b++ {
			out = append(out, spin[mimo.BitLLR{User: u, Bit: b}.SpinIndex(red)])
		}
	}
	return out
}

// jobs lists the arm-level device work and the per-frame fusions of one
// ServeEnsemble call, rebuilding each arm's request the way ServeEnsemble
// fans a frame out.
func (w *ensembleWorkload) jobs(cfg fleet.EnsembleConfig, frames []fleet.EnsembleFrame, res *fleet.EnsembleResult) ([]deviceJob, []fuseJob) {
	arms := core.PlanArms(w.spec.k, len(cfg.SpGrid))
	byFrame := make(map[[2]int]fleet.EnsembleFrame, len(frames))
	for _, f := range frames {
		byFrame[[2]int{f.Stream, f.Seq}] = f
	}
	var reqs []fleet.Request
	var outs []fleet.Outcome
	var fuses []fuseJob
	for _, eo := range res.Outcomes {
		f := byFrame[[2]int{eo.Stream, eo.Seq}]
		var pooled [][]qubo.Sample
		for ai, a := range arms {
			reqs = append(reqs, fleet.Request{
				Stream: f.Stream*len(arms) + ai, Seq: f.Seq,
				Problem: f.Problem, InitialState: f.Candidates[a.Candidate],
				Sp: cfg.SpGrid[a.SpIndex], Tp: cfg.Tp, NumReads: cfg.ReadsPerArm,
			})
			o := eo.Arms[ai]
			outs = append(outs, o)
			if !o.Shed && len(o.Samples) > 0 {
				pooled = append(pooled, o.Samples)
			}
		}
		if len(pooled) > 0 {
			fuses = append(fuses, fuseJob{arms: pooled, beta: cfg.Beta, want: eo.FusedLLRs})
		}
	}
	return fleetJobs(0, cfg.Fleet, reqs, outs), fuses
}
