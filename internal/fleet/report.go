package fleet

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/telemetry"
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
	// Utilization is the kind's summed busy time over makespan × devices,
	// the figure the fleet_backend_utilization gauge exposes.
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

// Timing holds a serve's makespan, throughput, latency and deadline
// figures. Report and the C-RAN tier report embed it; Tally computes it.
type Timing struct {
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
}

// Tally accumulates frame outcomes into a serve's counts and Timing. The
// mean latency sums in Add order, so feed outcomes in a fixed order.
type Tally struct {
	Frames, Served, Shed int
	// Gains counts quantum answers that strictly beat their candidate;
	// Misses counts deadline misses.
	Gains, Misses int

	makespan, latSum  float64
	latencies, queues []float64
}

// Add counts one frame.
func (t *Tally) Add(o *Outcome) {
	t.Frames++
	if o.Gain {
		t.Gains++
	}
	if o.DeadlineMissed {
		t.Misses++
	}
	t.makespan = max(t.makespan, o.Finish)
	if o.Shed {
		t.Shed++
		return
	}
	t.Served++
	lat := o.Finish - o.Arrival
	t.latencies = append(t.latencies, lat)
	t.queues = append(t.queues, o.QueueMicros)
	t.latSum += lat
}

// Timing returns the figures over the frames added so far.
func (t *Tally) Timing() Timing {
	tm := Timing{MakespanMicros: t.makespan}
	if t.Served > 0 {
		tm.MeanLatencyMicros = t.latSum / float64(t.Served)
	}
	sort.Float64s(t.latencies)
	sort.Float64s(t.queues)
	tm.P50LatencyMicros = metrics.NearestRank(t.latencies, 50)
	tm.P99LatencyMicros = metrics.NearestRank(t.latencies, 99)
	tm.P99QueueMicros = metrics.NearestRank(t.queues, 99)
	if t.Frames > 0 {
		tm.DeadlineMissRate = float64(t.Misses) / float64(t.Frames)
	}
	if tm.MakespanMicros > 0 {
		tm.ThroughputPerSecond = float64(t.Served) / tm.MakespanMicros * 1e6
	}
	return tm
}

// GainShare is Gains over Frames (0 before any frame).
func (t *Tally) GainShare() float64 {
	if t.Frames == 0 {
		return 0
	}
	return float64(t.Gains) / float64(t.Frames)
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
	Timing
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

// report aggregates the plan's accounting and the executed answers into
// a Report.
func (pl *planner) report() Report {
	var t Tally
	perStream := make([]StreamStats, len(pl.streams))
	for i := range pl.outcomes {
		o := &pl.outcomes[i]
		t.Add(o)
		ss := &perStream[pl.frames[i].stream]
		ss.Frames++
		if o.Shed {
			ss.Shed++
		} else {
			ss.Served++
			ss.MeanLatency += o.Finish - o.Arrival
		}
		if o.DeadlineMissed {
			ss.DeadlineMisses++
		}
	}
	rep := Report{
		Policy:           pl.cfg.Policy.String(),
		Frames:           t.Frames,
		Served:           t.Served,
		Shed:             t.Shed,
		Retries:          pl.retries,
		Batches:          len(pl.batches),
		Timing:           t.Timing(),
		QuantumGainShare: t.GainShare(),
		PrepCache:        pl.prepStats,
	}
	makespan := rep.MakespanMicros

	devs := make([]DeviceStats, len(pl.cfg.Devices))
	for d := range devs {
		devs[d].ID = d
		devs[d].BusyMicros = pl.busy[d]
		if makespan > 0 {
			devs[d].Utilization = pl.busy[d] / makespan
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
			goodBatches++
		}
	}
	// Every served frame ran in exactly one non-faulted batch.
	if goodBatches > 0 {
		rep.MeanBatchSize = float64(rep.Served) / float64(goodBatches)
	}
	rep.Devices = devs
	if pl.hetero {
		if pl.cfg.Route != RouteAny {
			rep.Route = pl.cfg.Route.String()
		}
		rep.RouteFallbacks = pl.routeFallbacks
		for kind := BackendQPUSim; kind <= BackendQAOA; kind++ {
			bs := BackendStats{Backend: kind.String()}
			busy := 0.0
			for d := range devs {
				if pl.cfg.Devices[d].Backend != kind {
					continue
				}
				bs.Devices++
				bs.Batches += devs[d].Batches
				bs.Frames += devs[d].Frames
				busy += devs[d].BusyMicros
			}
			if bs.Devices == 0 {
				continue
			}
			if makespan > 0 {
				bs.Utilization = busy / (makespan * float64(bs.Devices))
			}
			rep.Backends = append(rep.Backends, bs)
		}
	}

	for d, id := range pl.streams {
		ss := perStream[d]
		ss.Stream = id
		if ss.Served > 0 {
			ss.MeanLatency /= float64(ss.Served)
		}
		rep.Streams = append(rep.Streams, ss)
	}
	return rep
}

// publishPlan adds the figures the plan phase fixes to the registry:
// served frames, sheds by rung, deadline misses (fleet-wide and per
// stream), batches, faulted batches, retries and problem compiles. A
// count series appears only once it is positive; the compile counters
// always appear. The registry orders series itself, so map order does
// not matter. The plan-only series (queue depth, routing classes and
// route fallbacks) go out as the plan makes them.
func (pl *planner) publishPlan() {
	reg := pl.cfg.Metrics
	if reg == nil {
		return
	}
	add := func(name string, n int, ls ...telemetry.Label) {
		if n > 0 {
			reg.Counter(name, pl.mlabels(ls...)...).Add(float64(n))
		}
	}
	served, misses := 0, 0
	sheds := map[string]int{}
	streamMisses := make([]int, len(pl.streams))
	for i := range pl.outcomes {
		o := &pl.outcomes[i]
		if o.Shed {
			sheds[o.ShedReason]++
		} else {
			served++
		}
		if o.DeadlineMissed {
			misses++
			streamMisses[pl.frames[i].stream]++
		}
	}
	faults := 0
	for i := range pl.batches {
		if pl.batches[i].faulted {
			faults++
		}
	}
	add("fleet_frames_served_total", served)
	for reason, n := range sheds {
		add("fleet_shed_total", n, telemetry.Label{Key: "reason", Value: reason})
	}
	add("fleet_deadline_misses_total", misses)
	for d, id := range pl.streams {
		add("fleet_stream_deadline_misses_total", streamMisses[d], telemetry.Label{Key: "stream", Value: fmt.Sprint(id)})
	}
	add("fleet_batches_total", len(pl.batches))
	add("fleet_batch_faults_total", faults)
	add("fleet_retries_total", pl.retries)
	reg.Counter("fleet_prep_cache_hits_total", pl.mlabels()...).Add(float64(pl.prepStats.Hits))
	reg.Counter("fleet_prep_cache_misses_total", pl.mlabels()...).Add(float64(pl.prepStats.Misses))
}

// publish emits what the execute phase settles: one fleet/answer trace
// event per frame at its finish instant (the degradation-ladder position
// — quantum, classical-candidate or classical-fallback — is the
// availability SLI's raw event stream), answers by source, and the
// report's device and backend accounting.
func (pl *planner) publish(rep *Report) {
	if pl.cfg.Trace != nil {
		for i := range pl.outcomes {
			o := &pl.outcomes[i]
			as := make([]telemetry.Attr, 0, 6)
			as = append(as, telemetry.Int("device", o.Device))
			if o.Shed {
				as = append(as, telemetry.String("reason", o.ShedReason))
			}
			as = append(as, telemetry.Int("seq", o.Seq))
			if o.Shed {
				as = append(as, telemetry.Bool("shed", true))
			}
			as = append(as, telemetry.String("source", o.Source.String()), telemetry.Int("stream", o.Stream))
			pl.cfg.Trace.Event("fleet/answer", o.Finish, pl.tattrs(as...))
		}
	}
	reg := pl.cfg.Metrics
	if reg == nil {
		return
	}
	answers := map[core.AnswerSource]int{}
	for i := range pl.outcomes {
		answers[pl.outcomes[i].Source]++
	}
	for src, n := range answers {
		reg.Counter("fleet_answers_total", pl.mlabels(telemetry.Label{Key: "source", Value: src.String()})...).Add(float64(n))
	}
	for _, d := range rep.Devices {
		reg.Gauge("fleet_device_utilization",
			pl.mlabels(telemetry.Label{Key: "device", Value: fmt.Sprint(d.ID)})...).Set(d.Utilization)
	}
	for _, b := range rep.Backends {
		label := telemetry.Label{Key: "backend", Value: b.Backend}
		reg.Gauge("fleet_backend_utilization", pl.mlabels(label)...).Set(b.Utilization)
		reg.Counter("fleet_backend_frames_total", pl.mlabels(label)...).Add(float64(b.Frames))
	}
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
