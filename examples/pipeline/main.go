// Pipeline: Figure 2's staged classical-quantum processing of successive
// wireless channel uses. Frames arrive periodically; a CPU runs greedy
// search while the QPU reverse-anneals the PREVIOUS frame, so the two
// processor types overlap. The CPU stage is a ready-time recurrence
// (ready_i = max(ready_{i-1}, arrival_i) + cpu) and the QPU stage is a
// one-device fleet fed at those ready times. The example prints the
// modelled schedule, per-frame latencies against an ARQ deadline, and
// stage utilization.
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/mimo"
	"repro/internal/modulation"
)

func main() {
	const (
		users          = 4
		frames         = 10
		arrivalMicros  = 150.0  // channel-use spacing
		deadlineMicros = 2000.0 // ARQ turn-around budget
		// Model a heavier classical module (e.g. K-best) so the overlap
		// with the quantum stage is visible.
		cpuMicros = 70.0
	)
	insts, err := instance.Corpus(instance.Spec{
		Users: users, Scheme: modulation.QAM16, Channel: channel.UnitGainRandomPhase,
	}, 31, frames)
	if err != nil {
		log.Fatal(err)
	}

	// CPU stage: one greedy search per frame, in arrival order.
	reqs := make([]fleet.Request, frames)
	ready := 0.0
	for i, inst := range insts {
		init, err := core.GreedyModule{}.Initialize(inst.Reduction, nil)
		if err != nil {
			log.Fatal(err)
		}
		ready = max(ready, float64(i)*arrivalMicros) + cpuMicros
		reqs[i] = fleet.Request{Seq: i, Arrival: ready, Problem: inst.Reduction.Ising, InitialState: init}
	}
	// QPU stage: one simulated device, one frame per programming cycle.
	res, err := fleet.Serve(context.Background(), fleet.Config{
		Devices:  []fleet.Device{{}},
		NumReads: 60,
		BatchMax: 1,
		Seed:     2,
	}, reqs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("stages: cpu:gs → qpu:ra, %d channel uses arriving every %.0f μs\n", frames, arrivalMicros)
	fmt.Printf("%5s %10s %10s %10s %10s %8s %6s\n",
		"frame", "arrive_us", "cpu_start", "qpu_start", "finish", "lat_us", "ok")
	var lat []float64
	misses, qpuBusy := 0, 0.0
	for i, o := range res.Outcomes {
		arrive := float64(i) * arrivalMicros
		l := o.Finish - arrive
		lat = append(lat, l)
		qpuBusy += o.Finish - o.Start
		red := insts[i].Reduction
		ok := "yes"
		if l > deadlineMicros {
			misses++
			ok = "NO"
		} else if mimo.SymbolErrors(red.DecodeSpins(o.Best.Spins), insts[i].Transmitted) > 0 {
			ok = "NO"
		}
		fmt.Printf("%5d %10.0f %10.0f %10.0f %10.0f %8.0f %6s\n",
			i, arrive, reqs[i].Arrival-cpuMicros, o.Start, o.Finish, l, ok)
	}
	makespan := res.Report.MakespanMicros
	mean := metrics.Mean(lat)
	sort.Float64s(lat)
	fmt.Printf("\nthroughput: %.0f frames/s  mean latency: %.0f μs  p95: %.0f μs\n",
		float64(frames)/makespan*1e6, mean, metrics.NearestRank(lat, 95))
	fmt.Printf("deadline misses: %.0f%%  stage utilization: cpu %.0f%%, qpu %.0f%%\n",
		100*float64(misses)/frames, 100*frames*cpuMicros/makespan, 100*qpuBusy/makespan)
}
