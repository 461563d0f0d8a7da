package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cran"
	"repro/internal/fleet"
)

// Tier shape shared by every C-RAN capacity run. The per-device rate is
// the calibration constant the offered-load axis is expressed against:
// at 4 reads per frame and 4-frame batches a 2000Q-class device programs
// once (10 ms) per ~16 reads, draining roughly 330 frames per simulated
// second.
const (
	cranDevicesPerShard = 4
	cranUEsPerCell      = 5
	cranDurationMicros  = 80_000.0
	cranReads           = 4
	cranPerDeviceFPS    = 330.0
)

// CRANLoadRow is one offered-load point of the capacity sweep: the full
// tier serving a city workload whose mean arrival rate is Multiplier ×
// the tier's estimated drain capacity.
type CRANLoadRow struct {
	Multiplier          float64 `json:"multiplier"`
	OfferedFPS          float64 `json:"offered_fps"`
	Frames              int     `json:"frames"`
	Served              int     `json:"served"`
	RouterShed          int     `json:"router_shed"`
	Shed                int     `json:"shed"`
	ShedRate            float64 `json:"shed_rate"`
	ThroughputPerSecond float64 `json:"throughput_fps"`
	P99LatencyMicros    float64 `json:"p99_latency_us"`
	DeadlineMissRate    float64 `json:"deadline_miss_rate"`
}

// CRANScalingRow is one shard count's serving performance on the shared
// overload workload.
type CRANScalingRow struct {
	Shards              int     `json:"shards"`
	Devices             int     `json:"devices"`
	Served              int     `json:"served"`
	Shed                int     `json:"shed"`
	ThroughputPerSecond float64 `json:"throughput_fps"`
	Speedup             float64 `json:"speedup_vs_1"`
	P99LatencyMicros    float64 `json:"p99_latency_us"`
	MeanUtilization     float64 `json:"mean_utilization"`
}

// CRANResult is the C-RAN serving-tier capacity study: a sharded
// multi-cell tier under a city-scale diurnal workload, swept over offered
// load (capacity curve) and over shard count at fixed overload (scaling
// curve).
type CRANResult struct {
	Placement       string           `json:"placement"`
	Shards          int              `json:"shards"`
	DevicesPerShard int              `json:"devices_per_shard"`
	Cells           int              `json:"cells"`
	Streams         int              `json:"streams"`
	Reads           int              `json:"reads"`
	Load            []CRANLoadRow    `json:"load_rows"`
	Scaling         []CRANScalingRow `json:"scaling_rows"`
}

// cranCity declares the study's city workload at one offered-load level:
// Cells × 5 UE streams of mixed-class traffic shaped by the default
// diurnal profile with moderate bursts.
func cranCity(cfg Config, cells int, rate, deadline float64) ([]cran.Request, error) {
	return cran.Workload{
		Cells: cells, UEsPerCell: cranUEsPerCell,
		DurationMicros:  cranDurationMicros,
		FramesPerSecond: rate,
		Diurnal:         cran.DefaultDiurnal(),
		BurstProb:       0.25, BurstFactor: 2.5,
		NumReads:       cranReads,
		DeadlineMicros: deadline,
		Seed:           cfg.Seed ^ 0xC8A9,
	}.Generate()
}

// CRANPools builds n shards of the default heterogeneous 2000Q-class
// pool, cranDevicesPerShard devices each.
func CRANPools(n int) [][]fleet.Device {
	pools := make([][]fleet.Device, n)
	for s := range pools {
		pools[s] = fleet.DefaultDevices(cranDevicesPerShard)
	}
	return pools
}

// RunCRAN runs the C-RAN serving-tier capacity experiment over a tier of
// `shards` × 4 simulated 2000Q-class QPUs (default 8 × 4 = 32) serving
// `cells` base stations of 5 UE streams each (default 200 cells, 1000
// streams). Two sweeps share the tier:
//
//   - Capacity: offered load at 0.5×/1×/2×/3× the tier's estimated drain
//     rate, with deadlines and admission backpressure on, reporting
//     throughput, p99 latency, and shed rate as the tier saturates.
//   - Scaling: one fixed workload at 2× the full tier's capacity served
//     by 1..shards shard tiers with shedding disabled, reporting
//     throughput speedup over the single-shard baseline.
//
// The workload shape matches BenchmarkCRANServe so the committed bench
// records and this figure describe the same experiment.
func RunCRAN(cfg Config, shards, cells int, placement cran.Placement) (*CRANResult, error) {
	cfg = cfg.withDefaults()
	if shards <= 0 {
		shards = 8
	}
	if cells <= 0 {
		cells = 200
	}
	streams := cells * cranUEsPerCell
	capacityFPS := float64(shards*cranDevicesPerShard) * cranPerDeviceFPS

	res := &CRANResult{
		Placement:       placement.String(),
		Shards:          shards,
		DevicesPerShard: cranDevicesPerShard,
		Cells:           cells,
		Streams:         streams,
		Reads:           cranReads,
	}

	// Capacity sweep: the full tier, deadlines and backpressure on.
	for _, mult := range []float64{0.5, 1, 2, 3} {
		reqs, err := cranCity(cfg, cells, mult*capacityFPS/float64(streams), 50_000)
		if err != nil {
			return nil, err
		}
		out, err := cran.Serve(context.Background(), cran.Config{
			Shards:    CRANPools(shards),
			Placement: placement,
			Fleet: fleet.Config{
				BatchMax:         4,
				StreamQueueBound: 16,
			},
			AdmitQueueMicros: 25_000,
			EstReadMicros:    700,
			Seed:             cfg.Seed,
			Trace:            cfg.Trace,
			Metrics:          cfg.Metrics,
		}, reqs)
		if err != nil {
			return nil, err
		}
		rep := out.Report
		res.Load = append(res.Load, CRANLoadRow{
			Multiplier:          mult,
			OfferedFPS:          float64(len(reqs)) / cranDurationMicros * 1e6,
			Frames:              len(reqs),
			Served:              rep.Served,
			RouterShed:          rep.RouterShed,
			Shed:                rep.Shed,
			ShedRate:            rep.ShedRate,
			ThroughputPerSecond: rep.ThroughputPerSecond,
			P99LatencyMicros:    rep.P99LatencyMicros,
			DeadlineMissRate:    rep.DeadlineMissRate,
		})
	}

	// Scaling sweep: one overload workload (2× the FULL tier's capacity,
	// no deadlines, shedding off) served by growing shard counts, so
	// throughput is makespan-bound and the speedup isolates the shard
	// seam.
	scaleReqs, err := cranCity(cfg, cells, 2*capacityFPS/float64(streams), 0)
	if err != nil {
		return nil, err
	}
	sizes := []int{}
	for _, n := range []int{1, 2, 4, 8} {
		if n <= shards {
			sizes = append(sizes, n)
		}
	}
	if sizes[len(sizes)-1] != shards {
		sizes = append(sizes, shards)
	}
	var base float64
	for _, n := range sizes {
		out, err := cran.Serve(context.Background(), cran.Config{
			Shards:    CRANPools(n),
			Placement: placement,
			Fleet: fleet.Config{
				BatchMax:         4,
				StreamQueueBound: 64,
			},
			Seed:    cfg.Seed,
			Trace:   cfg.Trace,
			Metrics: cfg.Metrics,
		}, scaleReqs)
		if err != nil {
			return nil, err
		}
		rep := out.Report
		var util float64
		for _, row := range rep.ShardRows {
			util += row.MeanUtilization
		}
		util /= float64(len(rep.ShardRows))
		if base == 0 {
			base = rep.ThroughputPerSecond
		}
		row := CRANScalingRow{
			Shards:              n,
			Devices:             rep.Devices,
			Served:              rep.Served,
			Shed:                rep.Shed,
			ThroughputPerSecond: rep.ThroughputPerSecond,
			P99LatencyMicros:    rep.P99LatencyMicros,
			MeanUtilization:     util,
		}
		if base > 0 {
			row.Speedup = rep.ThroughputPerSecond / base
		}
		res.Scaling = append(res.Scaling, row)
	}
	return res, nil
}

// WriteTable renders both sweeps.
func (r *CRANResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# C-RAN capacity: %d shards × %d QPUs, %d cells / %d streams, %d reads, placement %s\n",
		r.Shards, r.DevicesPerShard, r.Cells, r.Streams, r.Reads, r.Placement)
	writeRow(w, "x_capacity", "offer_fps", "frames", "served", "rtr_shed", "shed_rate", "thru_fps", "p99_lat", "miss_rate")
	for _, row := range r.Load {
		writeRow(w, row.Multiplier, row.OfferedFPS, row.Frames, row.Served, row.RouterShed,
			row.ShedRate, row.ThroughputPerSecond, row.P99LatencyMicros, row.DeadlineMissRate)
	}
	fmt.Fprintf(w, "\n# Shard scaling at 2x offered load, shedding off\n")
	writeRow(w, "shards", "devices", "served", "shed", "thru_fps", "speedup", "p99_lat", "util")
	for _, row := range r.Scaling {
		writeRow(w, row.Shards, row.Devices, row.Served, row.Shed,
			row.ThroughputPerSecond, row.Speedup, row.P99LatencyMicros, row.MeanUtilization)
	}
}
