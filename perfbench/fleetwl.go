package main

import (
	"context"
	"fmt"

	"repro/internal/fleet"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// streamClass is one stream's traffic: detection shape, Poisson rate,
// and deadline.
type streamClass struct {
	users    int
	scheme   modulation.Scheme
	fps      float64
	deadline float64 // μs
}

// fleetShape shapes a workload served by one fleet.Serve call: stream s
// carries classes[s % len(classes)], every frame a fresh noiseless
// channel draw (the transmitted vector is then the ML witness).
type fleetShape struct {
	streams, perStream int
	classes            []streamClass
	devices            func() []fleet.Device
	route              fleet.RoutePolicy
	reads, batchMax    int
}

// uplinkSpec is the paper's reference instance at serving scale: 8-user
// 16-QAM (32 spins) on a 4-QPU fleet at about 0.7 of modelled capacity.
// Every frame is a new problem, so the prepared-problem cache never hits.
func uplinkSpec(small bool) fleetShape {
	s := fleetShape{
		streams: 8, perStream: 144,
		classes: []streamClass{{users: 8, scheme: modulation.QAM16, fps: 450.0 / 8, deadline: 60_000}},
		devices: func() []fleet.Device { return fleet.DefaultDevices(4) },
		reads:   12, batchMax: 4,
	}
	if small {
		s.perStream = 3
	}
	return s
}

// hybridSpec is the paper's hybrid thesis as a serving decision: even
// streams carry easy 3-user QPSK frames whose 5 ms deadline sits under a
// QPU's programming floor, odd streams the hard 8-user 16-QAM frames.
// Only hardness/deadline routing onto the PT/SA workers meets both.
func hybridSpec(small bool) fleetShape {
	s := fleetShape{
		streams: 8, perStream: 144,
		classes: []streamClass{
			{users: 3, scheme: modulation.QPSK, fps: 250, deadline: 5_000},
			{users: 8, scheme: modulation.QAM16, fps: 55, deadline: 60_000},
		},
		devices: func() []fleet.Device { return fleet.HybridDevices(2, 1, 1) },
		route:   fleet.RouteHybrid,
		reads:   20, batchMax: 4,
	}
	if small {
		s.perStream = 4
	}
	return s
}

type fleetWorkload struct {
	spec fleetShape
	seed uint64
	in   []frameInput
}

func newFleetWorkload(spec fleetShape) *fleetWorkload { return &fleetWorkload{spec: spec} }

func (w *fleetWorkload) size() int { return len(w.in) }

func (w *fleetWorkload) setup(seed uint64) error {
	w.seed = seed
	w.in = w.in[:0]
	root := rng.New(seed)
	for s := 0; s < w.spec.streams; s++ {
		c := w.spec.classes[s%len(w.spec.classes)]
		arrivals := poissonArrivals(root.SplitString("arrivals").Split(uint64(s)), w.spec.perStream, c.fps)
		for q := 0; q < w.spec.perStream; q++ {
			inst, err := instance.Synthesize(instance.Spec{
				Users: c.users, Scheme: c.scheme,
				Seed: root.SplitString("frame").Split(uint64(s)).Split(uint64(q)).Uint64(),
			})
			if err != nil {
				return err
			}
			w.in = append(w.in, frameInput{
				stream: s, seq: q, arrival: arrivals[q], deadline: c.deadline,
				problem: inst.Problem, tx: inst.Transmitted, ground: inst.GroundEnergy,
			})
		}
	}
	sortFrames(w.in)
	return nil
}

func (w *fleetWorkload) config(workers int) fleet.Config {
	return fleet.Config{
		Devices: w.spec.devices(), Route: w.spec.route,
		Sp: 0.45, Tp: 1, NumReads: w.spec.reads, BatchMax: w.spec.batchMax,
		Seed: w.seed, Workers: workers,
	}
}

func (w *fleetWorkload) pass(n, workers int, lg *ledger) (*passOut, error) {
	in := w.in[:n]
	reds, err := reduceAll(in, lg)
	if err != nil {
		return nil, err
	}
	cands := greedyAll(reds, lg)
	cfg := w.config(workers)
	var reqs []fleet.Request
	lg.time(layerHarness, func() error {
		reqs = make([]fleet.Request, n)
		for i, f := range in {
			reqs[i] = fleet.Request{
				Stream: f.stream, Seq: f.seq, Arrival: f.arrival, Deadline: f.deadline,
				Problem: reds[i].Ising, InitialState: cands[i],
			}
		}
		return nil
	})
	var res *fleet.Result
	if err := lg.time(layerServe, func() error {
		res, err = fleet.Serve(context.Background(), cfg, reqs)
		return err
	}); err != nil {
		return nil, fmt.Errorf("fleet serve: %w", err)
	}
	out := &passOut{dashboardServed: -1}
	if err := lg.time(layerHarness, func() error {
		out.frames, err = fleetOutcomes(in, cands, reds, res.Outcomes)
		return err
	}); err != nil {
		return nil, err
	}
	syms := decodeAll(reds, bestOf(out.frames), lg)
	lg.time(layerHarness, func() error {
		out.problems = make([]*qubo.Ising, n)
		for i, f := range in {
			out.problems[i] = reds[i].Ising
			e, b := uncodedBitErrors(f.problem.Scheme, syms[i], f.tx)
			out.bitErrs += e
			out.bits += b
		}
		for _, o := range res.Outcomes {
			out.arms = append(out.arms, armOutcome{Outcome: o})
		}
		out.prepStats = prepStats{res.Report.PrepCache.Hits, res.Report.PrepCache.Misses}
		out.routeFallbacks = res.Report.RouteFallbacks
		return nil
	})
	out.devices = len(cfg.Devices)
	out.replay = func() ([]deviceJob, []fuseJob) { return fleetJobs(0, cfg, reqs, res.Outcomes), nil }
	return out, nil
}

func bestOf(fs []frameOutcome) []qubo.Sample {
	out := make([]qubo.Sample, len(fs))
	for i := range fs {
		out[i] = fs[i].best
	}
	return out
}
