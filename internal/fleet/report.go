package fleet

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/metrics"
)

// DeviceStats aggregates one device's plan-phase accounting.
type DeviceStats struct {
	ID int `json:"id"`
	// Backend names the device's backend kind (heterogeneous pools only;
	// empty for homogeneous QPU fleets).
	Backend     string  `json:"backend,omitempty"`
	Batches     int     `json:"batches"`
	Frames      int     `json:"frames"`
	BusyMicros  float64 `json:"busy_us"`
	Utilization float64 `json:"utilization"`
}

// BackendStats aggregates one backend kind's devices (heterogeneous pools
// only).
type BackendStats struct {
	Backend string `json:"backend"`
	Devices int    `json:"devices"`
	Batches int    `json:"batches"`
	Frames  int    `json:"frames"`
	// Utilization is the mean across the kind's devices.
	Utilization float64 `json:"utilization"`
}

// StreamStats aggregates one stream's outcomes. MeanLatency is
// Finish − Arrival over the stream's served frames, as
// Report.MeanLatencyMicros is over all served frames (0 when the stream
// had none).
type StreamStats struct {
	Stream         int     `json:"stream"`
	Frames         int     `json:"frames"`
	Served         int     `json:"served"`
	Shed           int     `json:"shed"`
	DeadlineMisses int     `json:"deadline_misses"`
	MeanLatency    float64 `json:"mean_latency_us"`
}

// PrepStats counts one Serve's problem compiles on the anneal path.
type PrepStats struct {
	Hits, Misses uint64
}

// Report summarizes one Serve call.
type Report struct {
	Policy string `json:"policy"`
	// Route is the routing policy (set only when hybrid routing is on).
	Route string `json:"route,omitempty"`
	// RouteFallbacks counts frames whose routing class was relaxed to any
	// after their backend class died.
	RouteFallbacks int `json:"route_fallbacks,omitempty"`
	Frames         int `json:"frames"`
	Served         int `json:"served"`
	Shed           int `json:"shed"`
	Retries        int `json:"retries"`
	Batches        int `json:"batches"`
	// MeanBatchSize counts frames per non-faulted programming cycle.
	MeanBatchSize float64 `json:"mean_batch_size"`
	// MakespanMicros spans simulated time zero to the last finish.
	MakespanMicros float64 `json:"makespan_us"`
	// ThroughputPerSecond is served frames per simulated second.
	ThroughputPerSecond float64 `json:"throughput_fps"`
	// Latency figures are Finish − Arrival over served frames; queueing
	// delay is Start − Arrival.
	MeanLatencyMicros float64 `json:"mean_latency_us"`
	P50LatencyMicros  float64 `json:"p50_latency_us"`
	P99LatencyMicros  float64 `json:"p99_latency_us"`
	P99QueueMicros    float64 `json:"p99_queue_us"`
	DeadlineMissRate  float64 `json:"deadline_miss_rate"`
	// QuantumGainShare is the share of frames whose answer is quantum and
	// strictly beat the frame's classical candidate (Outcome.Gain). A
	// quantum answer that only ties its candidate does not count, so this
	// is the quantum half's own contribution to answer quality.
	QuantumGainShare float64 `json:"quantum_gain_share"`
	// PrepCache counts the anneal path's problem compiles: Misses is
	// compiles made, Hits is frames that ran against a batch-mate's
	// compile of the same problem.
	PrepCache PrepStats `json:"prep_cache"`

	Devices []DeviceStats `json:"devices"`
	// Backends is per-backend-kind accounting (nil for homogeneous pools).
	Backends []BackendStats `json:"backends,omitempty"`
	Streams  []StreamStats  `json:"streams"`
}

// report aggregates the plan's accounting into a Report.
func (pl *planner) report() Report {
	rep := Report{
		Policy:  pl.cfg.Policy.String(),
		Frames:  len(pl.outcomes),
		Retries: pl.retries,
		Batches: len(pl.batches),
	}
	rep.MakespanMicros = pl.makespan()
	rep.PrepCache = pl.prepStats

	var latencies, queues []float64
	perStream := map[int]*StreamStats{}
	var latSum float64
	misses, gains := 0, 0
	for i := range pl.outcomes {
		o := &pl.outcomes[i]
		if o.Gain {
			gains++
		}
		ss := perStream[o.Stream]
		if ss == nil {
			ss = &StreamStats{Stream: o.Stream}
			perStream[o.Stream] = ss
		}
		ss.Frames++
		lat := o.Finish - o.Arrival
		if o.Shed {
			rep.Shed++
			ss.Shed++
		} else {
			rep.Served++
			ss.Served++
			latencies = append(latencies, lat)
			queues = append(queues, o.QueueMicros)
			latSum += lat
			ss.MeanLatency += lat
		}
		if o.DeadlineMissed {
			misses++
			ss.DeadlineMisses++
		}
	}
	if rep.Served > 0 {
		rep.MeanLatencyMicros = latSum / float64(rep.Served)
	}
	sort.Float64s(latencies)
	sort.Float64s(queues)
	rep.P50LatencyMicros = metrics.NearestRank(latencies, 50)
	rep.P99LatencyMicros = metrics.NearestRank(latencies, 99)
	rep.P99QueueMicros = metrics.NearestRank(queues, 99)
	if rep.Frames > 0 {
		rep.DeadlineMissRate = float64(misses) / float64(rep.Frames)
		rep.QuantumGainShare = float64(gains) / float64(rep.Frames)
	}
	if rep.MakespanMicros > 0 {
		rep.ThroughputPerSecond = float64(rep.Served) / rep.MakespanMicros * 1e6
	}

	served := 0
	devs := make([]DeviceStats, len(pl.cfg.Devices))
	for d := range devs {
		devs[d].ID = d
		devs[d].BusyMicros = pl.busy[d]
		if rep.MakespanMicros > 0 {
			devs[d].Utilization = pl.busy[d] / rep.MakespanMicros
		}
		if pl.hetero {
			devs[d].Backend = pl.cfg.Devices[d].Backend.String()
		}
	}
	goodBatches := 0
	for i := range pl.batches {
		b := &pl.batches[i]
		devs[b.dev].Batches++
		if !b.faulted {
			devs[b.dev].Frames += len(b.frames)
			served += len(b.frames)
			goodBatches++
		}
	}
	if goodBatches > 0 {
		rep.MeanBatchSize = float64(served) / float64(goodBatches)
	}
	rep.Devices = devs
	if pl.hetero {
		if pl.cfg.Route != RouteAny {
			rep.Route = pl.cfg.Route.String()
		}
		rep.RouteFallbacks = pl.routeFallbacks
		for kind := BackendQPUSim; kind <= BackendQAOA; kind++ {
			bs := BackendStats{Backend: kind.String()}
			for d := range devs {
				if pl.cfg.Devices[d].Backend != kind {
					continue
				}
				bs.Devices++
				bs.Batches += devs[d].Batches
				bs.Frames += devs[d].Frames
				bs.Utilization += devs[d].Utilization
			}
			if bs.Devices == 0 {
				continue
			}
			bs.Utilization /= float64(bs.Devices)
			rep.Backends = append(rep.Backends, bs)
		}
	}

	for _, id := range pl.streams {
		ss := perStream[id]
		if ss == nil {
			continue
		}
		if ss.Served > 0 {
			ss.MeanLatency /= float64(ss.Served)
		}
		rep.Streams = append(rep.Streams, *ss)
	}
	return rep
}

// WriteTable renders the report for terminals.
func (r Report) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "policy\t%s\n", r.Policy)
	fmt.Fprintf(tw, "frames\t%d (served %d, shed %d, retries %d)\n", r.Frames, r.Served, r.Shed, r.Retries)
	fmt.Fprintf(tw, "batches\t%d (mean size %.2f)\n", r.Batches, r.MeanBatchSize)
	fmt.Fprintf(tw, "makespan\t%.0f µs\n", r.MakespanMicros)
	fmt.Fprintf(tw, "throughput\t%.1f frames/s\n", r.ThroughputPerSecond)
	fmt.Fprintf(tw, "latency\tmean %.0f µs, p50 %.0f µs, p99 %.0f µs\n",
		r.MeanLatencyMicros, r.P50LatencyMicros, r.P99LatencyMicros)
	fmt.Fprintf(tw, "queueing\tp99 %.0f µs\n", r.P99QueueMicros)
	fmt.Fprintf(tw, "deadline misses\t%.1f%%\n", 100*r.DeadlineMissRate)
	fmt.Fprintf(tw, "quantum gain\t%.1f%% of frames beat their candidate\n", 100*r.QuantumGainShare)
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "device\tbatches\tframes\tbusy µs\tutilization")
	for _, d := range r.Devices {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.0f\t%.1f%%\n", d.ID, d.Batches, d.Frames, d.BusyMicros, 100*d.Utilization)
	}
	if len(r.Backends) > 0 {
		fmt.Fprintln(tw)
		fmt.Fprintln(tw, "backend\tdevices\tbatches\tframes\tutilization")
		for _, b := range r.Backends {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f%%\n", b.Backend, b.Devices, b.Batches, b.Frames, 100*b.Utilization)
		}
		if r.Route != "" {
			fmt.Fprintf(tw, "route\t%s (%d fallbacks)\n", r.Route, r.RouteFallbacks)
		}
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "stream\tframes\tserved\tshed\tmisses\tmean latency µs")
	for _, s := range r.Streams {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%.0f\n", s.Stream, s.Frames, s.Served, s.Shed, s.DeadlineMisses, s.MeanLatency)
	}
	return tw.Flush()
}
