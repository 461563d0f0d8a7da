package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cran"
	"repro/internal/fleet"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// CRANSLOResult is the C-RAN SLO monitoring figure: the capacity sweep's
// 2× overload point re-served with an slo.Monitor tapping the trace, so
// the committed output shows the full observability surface — per-shard
// SLIs, the burn-rate alert timeline, device health, utilization, and
// critical paths — on a workload that actually stresses the tier.
type CRANSLOResult struct {
	Shards   int           `json:"shards"`
	Cells    int           `json:"cells"`
	Frames   int           `json:"frames"`
	Snapshot *slo.Snapshot `json:"snapshot"`
}

// RunCRANSLO serves one overloaded C-RAN workload (2× the tier's
// estimated drain capacity, deadlines and admission backpressure on —
// the same operating point as RunCRAN's 2× capacity row) with a live SLO
// monitor attached, and returns the monitoring snapshot. The run is
// fully deterministic in cfg.Seed, so the rendered dashboard is
// golden-able.
func RunCRANSLO(cfg Config, shards, cells int, placement cran.Placement) (*CRANSLOResult, error) {
	cfg = cfg.withDefaults()
	if shards <= 0 {
		shards = 2
	}
	if cells <= 0 {
		cells = 24
	}
	streams := cells * cranUEsPerCell
	capacityFPS := float64(shards*cranDevicesPerShard) * cranPerDeviceFPS

	const deadline = 50_000.0
	reqs, err := cranCity(cfg, cells, 2*capacityFPS/float64(streams), deadline)
	if err != nil {
		return nil, err
	}

	tracer := telemetry.NewTracer()
	monitor := slo.NewMonitor(slo.Config{Specs: slo.DefaultSpecs(deadline)})
	tracer.AddSink(monitor)

	if _, err := cran.Serve(context.Background(), cran.Config{
		Shards:    CRANPools(shards),
		Placement: placement,
		Fleet: fleet.Config{
			BatchMax:         4,
			StreamQueueBound: 16,
		},
		AdmitQueueMicros: 25_000,
		EstReadMicros:    700,
		Seed:             cfg.Seed,
		Trace:            tracer,
		Metrics:          cfg.Metrics,
	}, reqs); err != nil {
		return nil, err
	}
	snap, err := monitor.Finish()
	if err != nil {
		return nil, err
	}
	return &CRANSLOResult{Shards: shards, Cells: cells, Frames: len(reqs), Snapshot: snap}, nil
}

// WriteTable renders the monitoring dashboard.
func (r *CRANSLOResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# C-RAN SLO monitor: %d shards × %d QPUs, %d cells, %d frames at 2x capacity\n",
		r.Shards, cranDevicesPerShard, r.Cells, r.Frames)
	r.Snapshot.WriteDashboard(w)
}
