package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/mimo"
	"repro/internal/modulation"
)

// StageTiming is one discipline's modelled schedule over a frame stream.
// Latencies run from each channel use's own arrival.
type StageTiming struct {
	Makespan            float64 `json:"makespan_us"`
	ThroughputPerSecond float64 `json:"throughput_fps"`
	MeanLatency         float64 `json:"mean_latency_us"`
	P95Latency          float64 `json:"p95_latency_us"`
	// DeadlineMissRate is the share of frames finishing more than the
	// study's deadline after they arrived (0 without a deadline).
	DeadlineMissRate float64 `json:"deadline_miss_rate"`
}

// stageTiming summarizes per-frame finish times against arrivals.
// Deadline 0 disables the miss count.
func stageTiming(arrivals, finishes []float64, deadline float64) StageTiming {
	var st StageTiming
	if len(finishes) == 0 {
		return st
	}
	lat := make([]float64, len(finishes))
	missed := 0
	for i, f := range finishes {
		lat[i] = f - arrivals[i]
		st.Makespan = max(st.Makespan, f)
		if deadline > 0 && lat[i] > deadline {
			missed++
		}
	}
	n := float64(len(lat))
	st.MeanLatency = metrics.Mean(lat)
	sort.Float64s(lat)
	st.P95Latency = metrics.NearestRank(lat, 95)
	st.DeadlineMissRate = float64(missed) / n
	if st.Makespan > 0 {
		st.ThroughputPerSecond = n / st.Makespan * 1e6
	}
	return st
}

// fleetDevice is the figures' simulated QPU: no programming or readout
// overhead, the configuration's dynamics.
func (c Config) fleetDevice() fleet.Device {
	return fleet.Device{
		Profile:              c.Profile,
		SweepsPerMicrosecond: c.SweepsPerMicrosecond,
	}
}

// runStaged runs Figure 2's two stages over a frame stream. The classical
// stage is one CPU computing each frame's greedy candidate in arrival
// order, cpuMicros per frame (0: the greedy search's N²·1 ns), so
// ready_i = max(ready_{i-1}, arrival_i) + cpu. That ready time is the
// frame's fleet Arrival. The quantum stage is the fleet, one frame per
// programming cycle, so a frame's Finish − Start is its own service. Each
// frame is its own stream, letting frames run on several devices at once,
// and the outcomes come back in (stream, seq) order: frame order.
func runStaged(fc fleet.Config, insts []*instance.Instance, arrivals []float64, cpuMicros float64) (*fleet.Result, error) {
	reqs := make([]fleet.Request, len(insts))
	ready := 0.0
	for i, inst := range insts {
		init, err := core.GreedyModule{}.Initialize(inst.Reduction, nil)
		if err != nil {
			return nil, err
		}
		cpu := cpuMicros
		if cpu == 0 {
			n := inst.Reduction.NumSpins()
			cpu = float64(n*n) * 1e-3
		}
		ready = max(ready, arrivals[i]) + cpu
		reqs[i] = fleet.Request{Stream: i, Arrival: ready, Problem: inst.Reduction.Ising, InitialState: init}
	}
	fc.BatchMax = 1
	return fleet.Serve(context.Background(), fc, reqs)
}

// finishTimes returns the frames' quantum-stage finish times.
func finishTimes(outs []fleet.Outcome) []float64 {
	t := make([]float64, len(outs))
	for i, o := range outs {
		t[i] = o.Finish
	}
	return t
}

// decodedFrames counts frames whose answer decodes to the transmitted
// symbols.
func decodedFrames(insts []*instance.Instance, outs []fleet.Outcome) int {
	n := 0
	for i, o := range outs {
		red := insts[i].Reduction
		if mimo.SymbolErrors(red.DecodeSpins(o.Best.Spins), insts[i].Transmitted) == 0 {
			n++
		}
	}
	return n
}

// PipelineResult quantifies Figure 2's pipelining argument: processing
// successive channel uses through staged classical/quantum units versus
// running both stages serially per frame.
type PipelineResult struct {
	Frames int `json:"frames"`
	// Pipelined and Serial are the two execution disciplines' schedules.
	Pipelined StageTiming `json:"pipelined"`
	Serial    StageTiming `json:"serial"`
	// SpeedupMakespan = serial makespan / pipelined makespan.
	SpeedupMakespan float64 `json:"speedup_makespan"`
	// DecodeRate is the fraction of frames decoded to the transmitted
	// symbols.
	DecodeRate float64 `json:"decode_rate"`
}

// PipelineFigure runs a backlog of 16-QAM channel uses through the GS→RA
// stages on one simulated QPU: pipelined (Figure 2: the CPU runs frame
// i+1's greedy search while the QPU anneals frame i) and serialized (one
// unit runs both stages per frame), and compares modelled makespans.
func PipelineFigure(cfg Config, frames int) (*PipelineResult, error) {
	cfg = cfg.withDefaults()
	if frames <= 0 {
		frames = 8
	}
	// Charge a classical stage comparable to the quantum one so the
	// overlap is visible (a GS-only classical stage is ≈free; a
	// K-best/FCSD module would not be).
	const cpuMicros = 60.0
	insts, err := instance.Corpus(instance.Spec{Users: 4, Scheme: modulation.QAM16},
		cfg.Seed^0x22, frames)
	if err != nil {
		return nil, err
	}
	arrivals := make([]float64, frames) // a full backlog at t = 0
	served, err := runStaged(fleet.Config{
		Devices:  []fleet.Device{cfg.fleetDevice()},
		NumReads: 100,
		Seed:     cfg.Seed ^ 2,
		Trace:    cfg.Trace,
		Metrics:  cfg.Metrics,
	}, insts, arrivals, cpuMicros)
	if err != nil {
		return nil, err
	}
	// Serial: one unit replays each frame's CPU and QPU service back to
	// back, so nothing overlaps.
	serial := make([]float64, frames)
	t := 0.0
	for i, o := range served.Outcomes {
		t = max(t, arrivals[i]) + (cpuMicros + (o.Finish - o.Start))
		serial[i] = t
	}
	res := &PipelineResult{
		Frames:     frames,
		Pipelined:  stageTiming(arrivals, finishTimes(served.Outcomes), 0),
		Serial:     stageTiming(arrivals, serial, 0),
		DecodeRate: float64(decodedFrames(insts, served.Outcomes)) / float64(frames),
	}
	if res.Pipelined.Makespan > 0 {
		res.SpeedupMakespan = res.Serial.Makespan / res.Pipelined.Makespan
	}
	return res, nil
}

// WriteTable renders the comparison.
func (r *PipelineResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Figure 2: pipelined vs serial classical-quantum processing (%d channel uses)\n", r.Frames)
	writeRow(w, "discipline", "makespan_us", "thru_fps", "mean_lat_us")
	row := func(name string, st StageTiming) {
		writeRow(w, name, st.Makespan, st.ThroughputPerSecond, st.MeanLatency)
	}
	row("pipelined", r.Pipelined)
	row("serial", r.Serial)
	fmt.Fprintf(w, "makespan speedup: %.2fx; decode rate: %.2f\n", r.SpeedupMakespan, r.DecodeRate)
}
