package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/fleet"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/rng"
)

// CapacityRow is one QPU-pool size's modelled service quality under a
// fixed Poisson arrival process.
type CapacityRow struct {
	QPUs                int
	DeadlineMissRate    float64
	MeanLatencyMicros   float64
	P95LatencyMicros    float64
	QPUUtilization      float64
	ThroughputPerSecond float64
}

// CapacityResult is the Challenge-3 capacity-planning study: how many
// quantum processing units a base station needs for a given channel-use
// arrival rate and ARQ deadline — the "assign those units to staged
// processing units" question, answered by serving the quantum stage on
// fleets of growing size.
type CapacityResult struct {
	Rows           []CapacityRow
	Frames         int
	MeanArrival    float64
	DeadlineMicros float64
	ServiceMicros  float64
}

// poissonArrivals draws n arrival times with exponential gaps of the
// given mean; the first frame arrives at 0.
func poissonArrivals(n int, mean float64, r *rng.Source) []float64 {
	out := make([]float64, n)
	for i := 1; i < n; i++ {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		out[i] = out[i-1] - mean*math.Log(u)
	}
	return out
}

// RunCapacity sweeps the QPU pool size for a bursty (Poisson) stream of
// channel uses whose quantum service time exceeds the mean inter-arrival
// time — so a single QPU saturates and the deadline miss rate reveals
// the required pool size.
func RunCapacity(cfg Config) (*CapacityResult, error) {
	cfg = cfg.withDefaults()
	const (
		users          = 4
		frames         = 40
		meanArrival    = 60.0  // μs between channel uses
		deadlineMicros = 800.0 // ARQ budget
		reads          = 60    // quantum stage reads → ~126 μs service
	)
	insts, err := instance.Corpus(instance.Spec{Users: users, Scheme: modulation.QAM16},
		cfg.Seed^0xCAFE, frames)
	if err != nil {
		return nil, err
	}
	// The same arrival draw for every pool size.
	arrivals := poissonArrivals(frames, meanArrival, rng.New(cfg.Seed^0xA881))
	res := &CapacityResult{Frames: frames, MeanArrival: meanArrival, DeadlineMicros: deadlineMicros}
	for _, qpus := range []int{1, 2, 3, 4} {
		devs := make([]fleet.Device, qpus)
		for d := range devs {
			devs[d] = cfg.fleetDevice()
		}
		served, err := runStaged(fleet.Config{
			Devices:  devs,
			NumReads: reads,
			Seed:     cfg.Seed ^ 4,
			Trace:    cfg.Trace,
			Metrics:  cfg.Metrics,
		}, insts, arrivals, 0)
		if err != nil {
			return nil, err
		}
		busy := 0.0
		for _, o := range served.Outcomes {
			busy += o.Finish - o.Start
		}
		if res.ServiceMicros == 0 {
			res.ServiceMicros = served.Outcomes[0].Finish - served.Outcomes[0].Start
		}
		st := stageTiming(arrivals, finishTimes(served.Outcomes), deadlineMicros)
		res.Rows = append(res.Rows, CapacityRow{
			QPUs:                qpus,
			DeadlineMissRate:    st.DeadlineMissRate,
			MeanLatencyMicros:   st.MeanLatency,
			P95LatencyMicros:    st.P95Latency,
			QPUUtilization:      busy / st.Makespan / float64(qpus),
			ThroughputPerSecond: st.ThroughputPerSecond,
		})
	}
	return res, nil
}

// WriteTable renders the study.
func (r *CapacityResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Capacity planning: QPU pool size vs deadline misses (%d frames, %.0f μs mean arrival, %.0f μs QPU service, %.0f μs deadline)\n",
		r.Frames, r.MeanArrival, r.ServiceMicros, r.DeadlineMicros)
	writeRow(w, "qpus", "miss_rate", "mean_lat", "p95_lat", "qpu_util", "thru_fps")
	for _, row := range r.Rows {
		writeRow(w, row.QPUs, row.DeadlineMissRate, row.MeanLatencyMicros,
			row.P95LatencyMicros, row.QPUUtilization, row.ThroughputPerSecond)
	}
}
