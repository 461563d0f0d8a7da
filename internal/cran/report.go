package cran

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/fleet"
)

// ShardStats aggregates one shard's slice of the tier run.
type ShardStats struct {
	Shard int `json:"shard"`
	// Cells counts cells whose final placement epoch lives on this shard.
	Cells   int `json:"cells"`
	Devices int `json:"devices"`
	Frames  int `json:"frames"`
	Served  int `json:"served"`
	Shed    int `json:"shed"`
	// MeanUtilization averages device utilization from the shard's fleet
	// report.
	MeanUtilization float64 `json:"mean_utilization"`
}

// Report summarizes one tier Serve call.
type Report struct {
	Placement string `json:"placement"`
	Shards    int    `json:"shards"`
	Devices   int    `json:"devices"`
	Cells     int    `json:"cells"`
	Streams   int    `json:"streams"`
	Frames    int    `json:"frames"`
	// Admitted frames reached a shard dispatcher; RouterShed frames were
	// answered classically at admission. Admitted + RouterShed = Frames.
	Admitted   int `json:"admitted"`
	RouterShed int `json:"router_shed"`
	// Failovers counts cell moves; FailedOverFrames counts frames
	// admitted under an epoch > 0.
	Failovers        int `json:"failovers"`
	FailedOverFrames int `json:"failed_over_frames"`
	// Served/Shed partition all frames: Shed includes both router- and
	// shard-level sheds.
	Served int `json:"served"`
	Shed   int `json:"shed"`
	// Timing is fleet.Report's figures over every tier frame, router
	// sheds included.
	fleet.Timing
	ShedRate float64 `json:"shed_rate"`
	// QuantumGainShare is fleet.Report's figure over the whole tier: the
	// share of frames answered by a quantum strict improvement on their
	// candidate.
	QuantumGainShare float64 `json:"quantum_gain_share"`

	ShardRows []ShardStats `json:"shard_rows"`
}

// report aggregates the run into a Report. Per-shard frame counts come
// from the shards' own fleet reports; the tier figures are one fleet
// tally over every outcome, router sheds included.
func (rt *router) report(res *Result) Report {
	rep := Report{
		Placement:  rt.cfg.Placement.String(),
		Shards:     len(rt.cfg.Shards),
		Failovers:  rt.failovers,
		RouterShed: rt.routerShed,
	}
	perShard := make([]ShardStats, len(rt.cfg.Shards))
	for s := range perShard {
		fr := res.ShardReports[s]
		var util float64
		for _, d := range fr.Devices {
			util += d.Utilization
		}
		if len(fr.Devices) > 0 {
			util /= float64(len(fr.Devices))
		}
		perShard[s] = ShardStats{
			Shard: s, Devices: len(rt.cfg.Shards[s]),
			Frames: fr.Frames, Served: fr.Served, Shed: fr.Shed,
			MeanUtilization: util,
		}
		rep.Devices += len(rt.cfg.Shards[s])
		rep.Admitted += fr.Frames
	}
	for _, cs := range rt.cells {
		perShard[cs.shard].Cells++
	}

	var t fleet.Tally
	cells := map[int]bool{}
	streams := map[int]bool{}
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		t.Add(&o.Frame)
		cells[o.Cell] = true
		streams[StreamID(o.Cell, o.UE)] = true
		if o.FailedOver {
			rep.FailedOverFrames++
		}
	}
	rep.Cells = len(cells)
	rep.Streams = len(streams)
	rep.Frames, rep.Served, rep.Shed = t.Frames, t.Served, t.Shed
	rep.Timing = t.Timing()
	if rep.Frames > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Frames)
	}
	rep.QuantumGainShare = t.GainShare()
	rep.ShardRows = perShard
	return rep
}

// WriteTable renders the report for terminals.
func (r Report) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "placement\t%s (%d shards, %d devices)\n", r.Placement, r.Shards, r.Devices)
	fmt.Fprintf(tw, "workload\t%d cells, %d streams, %d frames\n", r.Cells, r.Streams, r.Frames)
	fmt.Fprintf(tw, "admission\t%d admitted, %d router-shed\n", r.Admitted, r.RouterShed)
	fmt.Fprintf(tw, "failover\t%d cell moves, %d frames on failover shards\n", r.Failovers, r.FailedOverFrames)
	fmt.Fprintf(tw, "frames\tserved %d, shed %d (%.1f%%)\n", r.Served, r.Shed, 100*r.ShedRate)
	fmt.Fprintf(tw, "makespan\t%.0f µs\n", r.MakespanMicros)
	fmt.Fprintf(tw, "throughput\t%.1f frames/s\n", r.ThroughputPerSecond)
	fmt.Fprintf(tw, "latency\tmean %.0f µs, p50 %.0f µs, p99 %.0f µs\n",
		r.MeanLatencyMicros, r.P50LatencyMicros, r.P99LatencyMicros)
	fmt.Fprintf(tw, "queueing\tp99 %.0f µs\n", r.P99QueueMicros)
	fmt.Fprintf(tw, "deadline misses\t%.1f%%\n", 100*r.DeadlineMissRate)
	fmt.Fprintf(tw, "quantum gain\t%.1f%% of frames beat their candidate\n", 100*r.QuantumGainShare)
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "shard\tcells\tdevices\tframes\tserved\tshed\tutilization")
	for _, s := range r.ShardRows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%.1f%%\n",
			s.Shard, s.Cells, s.Devices, s.Frames, s.Served, s.Shed, 100*s.MeanUtilization)
	}
	return tw.Flush()
}
