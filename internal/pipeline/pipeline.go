// Package pipeline implements Challenge 3 / Figure 2 of the paper: the
// staged classical-quantum computational pipeline that processes
// successive wireless channel uses. Data bits from channel use N are in
// the quantum stage while channel use N+1 is in the classical stage,
// exploiting the sequential arrival of traffic over a wireless link.
//
// Execution and timing are separated: stages run concurrently as
// goroutines connected by buffered channels (the pipeline's buffers), and
// each stage reports a modelled service time in simulated microseconds —
// the classical module's compute estimate, or the QPU's
// programming+anneal+readout budget. A deterministic schedule recurrence
// then turns per-frame service times into start/finish times, latencies,
// throughput, stage utilization, and ARQ-deadline misses, independent of
// host scheduling jitter.
package pipeline

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Frame is one channel use travelling through the pipeline.
type Frame struct {
	// Seq is the channel-use index (0-based).
	Seq int
	// Arrival is the frame's arrival time in simulated μs.
	Arrival float64
	// Deadline is the ARQ turn-around budget in μs from arrival; 0 means
	// no deadline.
	Deadline float64
	// Payload carries the stage data (detection problem, candidate state,
	// detected symbols) — owned by the stages.
	Payload any
	// ServiceTimes[s] is stage s's modelled μs for this frame, recorded
	// as the frame passes through.
	ServiceTimes []float64
	// Attempt is the current retry attempt at the executing stage (0 =
	// first try), set by Retry so stages can derive fresh RNG streams per
	// attempt; always reset to 0 between stages.
	Attempt int
	// Stats accumulates the frame's robustness accounting (retries,
	// backoff, fallbacks) as it flows through retry-wrapped stages.
	Stats FrameStats
	// Err aborts downstream processing but still flows to the collector
	// so accounting stays complete.
	Err error
}

// FrameStats is one frame's robustness accounting.
type FrameStats struct {
	// Attempts counts stage attempts under retry-wrapped stages (0 when
	// no wrapped stage ran the frame).
	Attempts int
	// Retries counts attempts beyond the first.
	Retries int
	// FaultedAttempts counts attempts that ended in a stage error.
	FaultedAttempts int
	// BackoffMicros is the total simulated backoff charged to the frame.
	BackoffMicros float64
	// FellBack reports the frame was answered by a fallback.
	FellBack bool
	// FallbackReason is "retries-exhausted" or "deadline" when FellBack.
	FallbackReason string
}

// ServiceSoFar sums the service time already charged to the frame by
// completed stages — the frame's known lower bound on consumed latency,
// which the retry policy charges its deadline budget against.
func (f *Frame) ServiceSoFar() float64 {
	var sum float64
	for _, s := range f.ServiceTimes {
		sum += s
	}
	return sum
}

// Stage is one processing unit (a CPU pool or a QPU).
type Stage interface {
	// Name identifies the stage in reports.
	Name() string
	// Process transforms the frame's payload and returns the modelled
	// service time in μs.
	Process(f *Frame) (serviceMicros float64, err error)
}

// Pipeline executes frames through stages in order.
type Pipeline struct {
	Stages []Stage
	// BufferSize is the channel capacity between consecutive stages
	// (default 1 — the tightest pipelining of Figure 2).
	BufferSize int
	// Replicas[s] models stage s as a pool of identical units (e.g. a
	// CPU pool or several QPUs — Challenge 3's "assign those units to
	// staged processing units"); missing/zero entries mean 1.
	Replicas []int
	// Trace, when set, receives one "stage/<name>" span per frame per
	// stage on the simulated clock (start/finish from the schedule
	// recurrence) plus deadline-miss events. Nil-safe.
	Trace *telemetry.Tracer
	// Metrics, when set, receives run counters (frames, deadline misses,
	// retries, fallbacks, answer sources), a latency histogram, and
	// per-stage utilization gauges. Nil-safe.
	Metrics *telemetry.Registry
}

// replicasAt returns stage s's server count (≥ 1).
func (p *Pipeline) replicasAt(s int) int {
	if s < len(p.Replicas) && p.Replicas[s] > 0 {
		return p.Replicas[s]
	}
	return 1
}

// Run pushes every frame through all stages concurrently (one goroutine
// per stage) and returns them in order with service times recorded.
func (p *Pipeline) Run(frames []*Frame) ([]*Frame, error) {
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("pipeline: no stages")
	}
	buf := p.BufferSize
	if buf <= 0 {
		buf = 1
	}
	for _, f := range frames {
		f.ServiceTimes = make([]float64, len(p.Stages))
	}
	in := make(chan *Frame, buf)
	cur := in
	var wg sync.WaitGroup
	for si, st := range p.Stages {
		out := make(chan *Frame, buf)
		wg.Add(1)
		go func(si int, st Stage, in <-chan *Frame, out chan<- *Frame) {
			defer wg.Done()
			defer close(out)
			for f := range in {
				if f.Err == nil {
					micros, err := st.Process(f)
					if err != nil {
						f.Err = fmt.Errorf("pipeline: stage %s frame %d: %w", st.Name(), f.Seq, err)
					} else {
						f.ServiceTimes[si] = micros
					}
				}
				out <- f
			}
		}(si, st, cur, out)
		cur = out
	}
	done := make(chan []*Frame)
	go func() {
		var collected []*Frame
		for f := range cur {
			collected = append(collected, f)
		}
		done <- collected
	}()
	for _, f := range frames {
		in <- f
	}
	close(in)
	wg.Wait()
	collected := <-done
	// Stages preserve order (single goroutine per stage, FIFO channels).
	for i, f := range collected {
		if f.Seq != frames[i].Seq {
			return nil, fmt.Errorf("pipeline: frame order violated at %d", i)
		}
	}
	return collected, nil
}

// FrameTiming is one frame's modelled schedule.
type FrameTiming struct {
	Seq      int
	Arrival  float64
	Start    []float64 // per stage
	Finish   []float64 // per stage
	Latency  float64   // completion − arrival
	Deadline float64
	Missed   bool
	// Attempts and FellBack carry the frame's retry/fallback accounting
	// into the report.
	Attempts int
	FellBack bool
}

// Report aggregates a pipeline run's modelled timing.
type Report struct {
	Frames []FrameTiming
	// Makespan is the completion time of the last frame (μs).
	Makespan float64
	// ThroughputPerSecond is frames per simulated second in steady state.
	ThroughputPerSecond float64
	// MeanLatency and P95Latency are per-frame latencies (μs).
	MeanLatency, P95Latency float64
	// DeadlineMissRate is the fraction of frames finishing past their
	// deadline.
	DeadlineMissRate float64
	// Utilization[s] is stage s's busy fraction of the makespan.
	Utilization []float64
	// StageNames labels the columns.
	StageNames []string
	// Retries is the total attempts beyond the first across all frames.
	Retries int
	// Fallbacks is the number of frames answered by a fallback, and
	// FallbackRate their fraction.
	Fallbacks    int
	FallbackRate float64
	// BackoffMicros is the total simulated retry backoff charged.
	BackoffMicros float64
}

// Schedule computes the modelled pipeline timing for processed frames:
// stage s starts frame i when the frame has arrived, stage s has finished
// frame i−1, stage s−1 has delivered frame i, and — with bounded buffers
// of capacity B — the downstream stage has started frame i−B (back-
// pressure).
func (p *Pipeline) Schedule(frames []*Frame) (*Report, error) {
	n := len(frames)
	s := len(p.Stages)
	if s == 0 {
		return nil, fmt.Errorf("pipeline: no stages")
	}
	buf := p.BufferSize
	if buf <= 0 {
		buf = 1
	}
	start := make([][]float64, n)
	finish := make([][]float64, n)
	for i := range start {
		start[i] = make([]float64, s)
		finish[i] = make([]float64, s)
	}
	for i, f := range frames {
		if f.Err != nil {
			return nil, fmt.Errorf("pipeline: cannot schedule failed frame %d: %w", f.Seq, f.Err)
		}
		for st := 0; st < s; st++ {
			t := f.Arrival
			if st > 0 {
				t = max2(t, finish[i][st-1])
			}
			// With R replicated units, frame i waits for the unit that
			// processed frame i−R (FIFO dispatch).
			if rep := p.replicasAt(st); i-rep >= 0 {
				t = max2(t, finish[i-rep][st])
			}
			// Back-pressure: with buffer capacity buf between this stage
			// and the next, frame i cannot enter stage st until frame
			// i−buf−1 has vacated it into the buffer... conservatively,
			// until the downstream stage has started frame i−buf.
			if st+1 < s && i-buf >= 0 {
				t = max2(t, start[i-buf][st+1])
			}
			start[i][st] = t
			finish[i][st] = t + f.ServiceTimes[st]
		}
	}
	rep := &Report{Utilization: make([]float64, s)}
	for _, st := range p.Stages {
		rep.StageNames = append(rep.StageNames, st.Name())
	}
	var latencies []float64
	busy := make([]float64, s)
	missed := 0
	for i, f := range frames {
		ft := FrameTiming{
			Seq:      f.Seq,
			Arrival:  f.Arrival,
			Start:    start[i],
			Finish:   finish[i],
			Latency:  finish[i][s-1] - f.Arrival,
			Deadline: f.Deadline,
			Attempts: f.Stats.Attempts,
			FellBack: f.Stats.FellBack,
		}
		if f.Deadline > 0 && ft.Latency > f.Deadline {
			ft.Missed = true
			missed++
		}
		rep.Retries += f.Stats.Retries
		rep.BackoffMicros += f.Stats.BackoffMicros
		if f.Stats.FellBack {
			rep.Fallbacks++
		}
		rep.Frames = append(rep.Frames, ft)
		latencies = append(latencies, ft.Latency)
		for st := 0; st < s; st++ {
			busy[st] += f.ServiceTimes[st]
		}
		if finish[i][s-1] > rep.Makespan {
			rep.Makespan = finish[i][s-1]
		}
	}
	if n > 0 {
		rep.MeanLatency = metrics.Mean(latencies)
		sort.Float64s(latencies)
		rep.P95Latency = metrics.NearestRank(latencies, 95)
		rep.DeadlineMissRate = float64(missed) / float64(n)
		rep.FallbackRate = float64(rep.Fallbacks) / float64(n)
		if rep.Makespan > 0 {
			for st := 0; st < s; st++ {
				rep.Utilization[st] = busy[st] / rep.Makespan / float64(p.replicasAt(st))
			}
			rep.ThroughputPerSecond = float64(n) / rep.Makespan * 1e6
		}
	}
	p.emitTelemetry(frames, rep)
	return rep, nil
}

// emitTelemetry publishes a scheduled run's spans (per frame per stage on
// the simulated clock) and aggregate metrics. Purely observational: the
// report is complete before emission, and both sinks are nil-safe.
func (p *Pipeline) emitTelemetry(frames []*Frame, rep *Report) {
	if p.Trace == nil && p.Metrics == nil {
		return
	}
	last := len(p.Stages) - 1
	if p.Trace != nil {
		for _, ft := range rep.Frames {
			for st := range p.Stages {
				attrs := make(telemetry.Attrs, 0, 4)
				if ft.Attempts > 1 && st == last {
					attrs = append(attrs, telemetry.Int("attempts", ft.Attempts))
				}
				if ft.FellBack && st == last {
					attrs = append(attrs, telemetry.Bool("fellback", true))
				}
				attrs = append(attrs, telemetry.Int("frame", ft.Seq))
				if st == last {
					attrs = append(attrs, telemetry.Float("latency_us", ft.Latency))
				}
				p.Trace.Span("stage/"+rep.StageNames[st], ft.Start[st], ft.Finish[st], attrs)
			}
			if ft.Missed {
				p.Trace.Event("deadline-miss", ft.Finish[last], telemetry.Attrs{
					telemetry.Float("deadline_us", ft.Deadline), telemetry.Int("frame", ft.Seq),
					telemetry.Float("latency_us", ft.Latency),
				})
			}
		}
	}
	if reg := p.Metrics; reg != nil {
		missed := 0
		for _, ft := range rep.Frames {
			if ft.Missed {
				missed++
			}
			// Latency window: 10 ms covers every paper-scale ARQ budget;
			// beyond-window latencies clamp into the last bucket.
			reg.Histogram("pipeline_frame_latency_micros", 0, 10_000, 50).Observe(ft.Latency)
		}
		reg.Counter("pipeline_frames_total").Add(float64(len(rep.Frames)))
		reg.Counter("pipeline_deadline_misses_total").Add(float64(missed))
		reg.Counter("pipeline_retries_total").Add(float64(rep.Retries))
		reg.Counter("pipeline_fallbacks_total").Add(float64(rep.Fallbacks))
		reg.Counter("pipeline_backoff_micros_total").Add(rep.BackoffMicros)
		reg.Gauge("pipeline_throughput_fps").Set(rep.ThroughputPerSecond)
		for st, name := range rep.StageNames {
			reg.Gauge("pipeline_stage_utilization", telemetry.Label{Key: "stage", Value: name}).
				Set(rep.Utilization[st])
		}
		RecordDetectionOutcomes(reg, frames)
	}
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
