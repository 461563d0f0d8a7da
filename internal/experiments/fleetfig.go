package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/rng"
)

// FleetScalingRow is one fleet size's serving performance on the shared
// workload.
type FleetScalingRow struct {
	Devices             int     `json:"devices"`
	Served              int     `json:"served"`
	Shed                int     `json:"shed"`
	ThroughputPerSecond float64 `json:"throughput_fps"`
	Speedup             float64 `json:"speedup_vs_1"`
	P99LatencyMicros    float64 `json:"p99_latency_us"`
	DeadlineMissRate    float64 `json:"deadline_miss_rate"`
	MeanBatchSize       float64 `json:"mean_batch_size"`
	MeanUtilization     float64 `json:"mean_utilization"`
}

// FleetScalingResult is the fleet-serving scaling study: the same
// backlogged multi-stream workload served by growing heterogeneous QPU
// pools, showing how added devices translate into detection throughput.
type FleetScalingResult struct {
	Policy  string            `json:"policy"`
	Streams int               `json:"streams"`
	Frames  int               `json:"frames"`
	Reads   int               `json:"reads"`
	Rows    []FleetScalingRow `json:"rows"`
}

// FleetWorkload builds the fleet-scaling reference workload: `streams`
// concurrent streams of `perStream` 8-user 16-QAM detection frames,
// 100 μs apart (a deep backlog), cycling over a 4-instance corpus drawn
// from seed. Frame q of stream s gets its greedy candidate from
// root.Split(s*perStream+q).
func FleetWorkload(seed uint64, streams, perStream int, root *rng.Source) ([]fleet.Request, error) {
	const interval = 100.0
	insts, err := instance.Corpus(instance.Spec{Users: 8, Scheme: modulation.QAM16}, seed, 4)
	if err != nil {
		return nil, err
	}
	var reqs []fleet.Request
	gs := core.GreedyModule{}
	for s := 0; s < streams; s++ {
		for q := 0; q < perStream; q++ {
			inst := insts[(s+q)%len(insts)]
			init, err := gs.Initialize(inst.Reduction, root.Split(uint64(s*perStream+q)))
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, fleet.Request{
				Stream: s, Seq: q,
				Arrival:      float64(q) * interval,
				Problem:      inst.Reduction.Ising,
				InitialState: init,
			})
		}
	}
	return reqs, nil
}

// RunFleetScaling serves the paper's reference serving workload — 8
// concurrent streams of 8-user 16-QAM detection frames arriving faster
// than one device drains them — through fleets of 1..maxDevices
// (default 8) simulated 2000Q-class QPUs under the given policy, and
// reports throughput scaling against the single-device baseline. The
// workload shape matches BenchmarkFleetServe so the committed bench
// records and this figure describe the same experiment.
func RunFleetScaling(cfg Config, maxDevices int, policy fleet.Policy) (*FleetScalingResult, error) {
	cfg = cfg.withDefaults()
	if maxDevices <= 0 {
		maxDevices = 8
	}
	const (
		streams   = 8
		perStream = 6
		reads     = 60
	)

	reqs, err := FleetWorkload(cfg.Seed^0xF1EE, streams, perStream, cfg.root())
	if err != nil {
		return nil, err
	}

	sizes := []int{}
	for _, n := range []int{1, 2, 4, 8} {
		if n <= maxDevices {
			sizes = append(sizes, n)
		}
	}
	if sizes[len(sizes)-1] != maxDevices {
		sizes = append(sizes, maxDevices)
	}

	res := &FleetScalingResult{
		Policy: policy.String(), Streams: streams, Frames: len(reqs), Reads: reads,
	}
	var base float64
	for _, n := range sizes {
		fc := fleet.Config{
			Devices:          fleet.DefaultDevices(n),
			Policy:           policy,
			NumReads:         reads,
			BatchMax:         4,
			StreamQueueBound: 64,
			Seed:             cfg.Seed,
			Trace:            cfg.Trace,
			Metrics:          cfg.Metrics,
		}
		out, err := fleet.Serve(context.Background(), fc, reqs)
		if err != nil {
			return nil, err
		}
		rep := out.Report
		var util float64
		for _, d := range rep.Devices {
			util += d.Utilization
		}
		if len(rep.Devices) > 0 {
			util /= float64(len(rep.Devices))
		}
		if base == 0 {
			base = rep.ThroughputPerSecond
		}
		row := FleetScalingRow{
			Devices:             n,
			Served:              rep.Served,
			Shed:                rep.Shed,
			ThroughputPerSecond: rep.ThroughputPerSecond,
			P99LatencyMicros:    rep.P99LatencyMicros,
			DeadlineMissRate:    rep.DeadlineMissRate,
			MeanBatchSize:       rep.MeanBatchSize,
			MeanUtilization:     util,
		}
		if base > 0 {
			row.Speedup = rep.ThroughputPerSecond / base
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteTable renders the study. An empty result (zero streams) renders
// its header with zero frames rather than dividing by zero.
func (r *FleetScalingResult) WriteTable(w io.Writer) {
	perStream := 0
	if r.Streams > 0 {
		perStream = r.Frames / r.Streams
	}
	fmt.Fprintf(w, "# Fleet scaling: %d streams × %d frames of 8-user 16-QAM, %d reads, policy %s\n",
		r.Streams, perStream, r.Reads, r.Policy)
	writeRow(w, "devices", "served", "shed", "thru_fps", "speedup", "p99_lat", "miss_rate", "batch", "util")
	for _, row := range r.Rows {
		writeRow(w, row.Devices, row.Served, row.Shed, row.ThroughputPerSecond,
			row.Speedup, row.P99LatencyMicros, row.DeadlineMissRate,
			row.MeanBatchSize, row.MeanUtilization)
	}
}
