package main

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/cran"
	"repro/internal/fleet"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// cityClass is one cell traffic class and its draw weight.
type cityClass struct {
	users  int
	scheme modulation.Scheme
	weight float64
}

// cityShape shapes the operator's monitored C-RAN deployment: cells×UEs
// Poisson streams shaped by a day profile with per-(cell, bucket)
// bursts, tiny 4–8-spin frames drawn from a per-class instance corpus,
// served by a sharded tier with the trace, metrics registry, and SLO
// monitor attached.
type cityShape struct {
	cells, uesPerCell int
	horizon           float64 // μs
	ueFPS             float64 // one UE's mean rate at day-profile level 1
	day               []float64
	burstProb         float64
	burstFactor       float64
	classes           []cityClass
	corpus            int
	shards            int
	reads             int
	deadline          float64 // μs
}

// citySpec offers 0.5 × 16 devices × 330 fps (the tier's estimated
// drain rate at 4 reads) across 200 cells × 5 UEs for 8 simulated
// seconds, shaped like -fig cran-slo.
func citySpec(small bool) cityShape {
	s := cityShape{
		cells: 200, uesPerCell: 5,
		horizon:   4e6,
		ueFPS:     0.5 * 16 * 330 / 1000,
		day:       []float64{0.3, 0.2, 0.25, 0.45, 0.8, 1.0, 1.1, 1.0, 0.95, 1.2, 1.35, 0.7},
		burstProb: 0.25, burstFactor: 2.5,
		classes: []cityClass{
			{users: 2, scheme: modulation.QPSK, weight: 2},
			{users: 3, scheme: modulation.QPSK, weight: 1},
			{users: 2, scheme: modulation.QAM16, weight: 1},
		},
		corpus: 256, shards: 4, reads: 4, deadline: 50_000,
	}
	if small {
		s.cells, s.horizon, s.corpus = 6, 1e6, 4
	}
	return s
}

type cityWorkload struct {
	spec cityShape
	seed uint64
	in   []frameInput
}

func newCityWorkload(spec cityShape) *cityWorkload { return &cityWorkload{spec: spec} }

func (w *cityWorkload) size() int { return len(w.in) }

func (w *cityWorkload) setup(seed uint64) error {
	w.seed = seed
	w.in = w.in[:0]
	sp := w.spec
	root := rng.New(seed)
	corpora := make([][]*instance.Instance, len(sp.classes))
	totalWeight := 0.0
	for c, cl := range sp.classes {
		insts, err := instance.Corpus(instance.Spec{Users: cl.users, Scheme: cl.scheme},
			root.SplitString("corpus").Split(uint64(c)).Uint64(), sp.corpus)
		if err != nil {
			return err
		}
		corpora[c] = insts
		totalWeight += cl.weight
	}
	peak := 0.0
	for _, d := range sp.day {
		peak = math.Max(peak, d)
	}
	base := sp.ueFPS / 1e6 // frames per μs at level 1
	lambdaMax := base * peak * sp.burstFactor
	bucketLen := sp.horizon / float64(len(sp.day))
	for cell := 0; cell < sp.cells; cell++ {
		cr := root.SplitString("cell").Split(uint64(cell))
		pick, class := cr.Float64()*totalWeight, len(sp.classes)-1
		for c, cl := range sp.classes {
			if pick < cl.weight {
				class = c
				break
			}
			pick -= cl.weight
		}
		bursts := make([]bool, len(sp.day))
		for b := range bursts {
			bursts[b] = cr.Float64() < sp.burstProb
		}
		for ue := 0; ue < sp.uesPerCell; ue++ {
			// Thinning: step at the peak rate, accept at λ(t)/λmax.
			sr := root.SplitString("stream").Split(uint64(cell*sp.uesPerCell + ue))
			for t, seq := 0.0, 0; ; {
				t += -math.Log(1-sr.Float64()) / lambdaMax
				if t >= sp.horizon {
					break
				}
				b := min(int(t/bucketLen), len(sp.day)-1)
				rate := base * sp.day[b]
				if bursts[b] {
					rate *= sp.burstFactor
				}
				if sr.Float64()*lambdaMax >= rate {
					continue
				}
				inst := corpora[class][sr.Intn(sp.corpus)]
				w.in = append(w.in, frameInput{
					stream: cran.StreamID(cell, ue), seq: seq, arrival: t, deadline: sp.deadline,
					problem: inst.Problem, tx: inst.Transmitted, ground: inst.GroundEnergy,
				})
				seq++
			}
		}
	}
	sortFrames(w.in)
	return nil
}

func (w *cityWorkload) config(workers int) cran.Config {
	pools := make([][]fleet.Device, w.spec.shards)
	for s := range pools {
		pools[s] = fleet.DefaultDevices(4)
	}
	return cran.Config{
		Shards: pools,
		Fleet: fleet.Config{
			Sp: 0.45, Tp: 1, NumReads: w.spec.reads,
			BatchMax: 4, StreamQueueBound: 16, Workers: 1,
		},
		AdmitQueueMicros: 25_000,
		EstReadMicros:    700,
		Seed:             w.seed,
		ShardWorkers:     workers,
	}
}

// countingWriter discards bytes and counts them.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func (w *cityWorkload) pass(n, workers int, lg *ledger) (*passOut, error) {
	in := w.in[:n]
	reds, err := reduceAll(in, lg)
	if err != nil {
		return nil, err
	}
	cands := greedyAll(reds, lg)
	cfg := w.config(workers)
	var reqs []cran.Request
	var heap0 uint64
	lg.time(layerHarness, func() error {
		reqs = make([]cran.Request, n)
		for i, f := range in {
			reqs[i] = cran.Request{
				Cell: f.stream / cran.MaxUEsPerCell, UE: f.stream % cran.MaxUEsPerCell, Seq: f.seq,
				Arrival: f.arrival, Deadline: f.deadline,
				Problem: reds[i].Ising, InitialState: cands[i],
			}
		}
		if lg != nil {
			heap0 = liveHeap()
		}
		return nil
	})
	tracer := telemetry.NewTracer()
	monitor := slo.NewMonitor(slo.Config{Specs: slo.DefaultSpecs(w.spec.deadline)})
	tracer.AddSink(monitor)
	monitored := cfg
	monitored.Trace, monitored.Metrics = tracer, telemetry.NewRegistry()

	var res *cran.Result
	if err := lg.time(layerServe, func() error {
		res, err = cran.Serve(context.Background(), monitored, reqs)
		return err
	}); err != nil {
		return nil, fmt.Errorf("cran serve: %w", err)
	}
	var snap *slo.Snapshot
	if err := lg.time(layerSLOFinish, func() error {
		snap, err = monitor.Finish()
		return err
	}); err != nil {
		return nil, fmt.Errorf("slo finish: %w", err)
	}
	out := &passOut{dashboardServed: snap.Tier.Served}
	if err := lg.time(layerSLODashboard, func() error {
		return snap.WriteDashboard(&countingWriter{})
	}); err != nil {
		return nil, err
	}
	var jsonl countingWriter
	if err := lg.time(layerJSONL, func() error { return tracer.WriteJSONL(&jsonl) }); err != nil {
		return nil, err
	}
	out.records, out.jsonlBytes = tracer.Len(), jsonl.n
	lg.time(layerHarness, func() error {
		if lg != nil {
			out.retainedMB = (float64(liveHeap()) - float64(heap0)) / (1 << 20)
			runtime.KeepAlive(snap)
			runtime.KeepAlive(tracer)
		}
		return nil
	})

	fouts := make([]fleet.Outcome, len(res.Outcomes))
	if err := lg.time(layerHarness, func() error {
		for i, o := range res.Outcomes {
			fouts[i] = o.Frame
		}
		out.frames, err = fleetOutcomes(in, cands, reds, fouts)
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
		out.shardAdmitted = make([]int, len(cfg.Shards))
		for _, o := range res.Outcomes {
			if o.RouterShed {
				out.routerShed++
				continue
			}
			out.shardAdmitted[o.Shard]++
			out.arms = append(out.arms, armOutcome{pool: o.Shard, Outcome: o.Frame})
		}
		for _, r := range res.ShardReports {
			out.prepStats.hits += r.PrepCache.Hits
			out.prepStats.misses += r.PrepCache.Misses
		}
		out.failovers = res.Report.Failovers
		return nil
	})
	for _, pool := range cfg.Shards {
		out.devices += len(pool)
	}
	out.replay = func() ([]deviceJob, []fuseJob) { return cityJobs(cfg, reqs, res), nil }
	out.serveAgain = func() error {
		_, err := cran.Serve(context.Background(), cfg, reqs)
		return err
	}
	return out, nil
}

// cityJobs lists the device work of every shard's serve.
func cityJobs(cfg cran.Config, reqs []cran.Request, res *cran.Result) []deviceJob {
	perShard := make([][]fleet.Outcome, len(cfg.Shards))
	for _, o := range res.Outcomes {
		if o.Shard >= 0 {
			perShard[o.Shard] = append(perShard[o.Shard], o.Frame)
		}
	}
	freqs := make([]fleet.Request, len(reqs))
	for i, r := range reqs {
		freqs[i] = fleet.Request{
			Stream: cran.StreamID(r.Cell, r.UE), Seq: r.Seq,
			Problem: r.Problem, InitialState: r.InitialState,
			Sp: r.Sp, Tp: r.Tp, NumReads: r.NumReads,
		}
	}
	var jobs []deviceJob
	for s, outs := range perShard {
		fc := cfg.Fleet
		fc.Devices = cfg.Shards[s]
		fc.Seed = shardSeed(cfg.Seed, s)
		jobs = append(jobs, fleetJobs(s, fc, freqs, outs)...)
	}
	return jobs
}

// shardSeed is the fleet seed the C-RAN tier hands shard s.
func shardSeed(seed uint64, s int) uint64 {
	return rng.New(seed).SplitString("cran/shard-seed").Split(uint64(s)).Uint64()
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
