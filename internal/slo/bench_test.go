package slo

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/telemetry"
)

// shardedTrace synthesizes the record stream a sharded serving tier
// emits: per shard, 4-frame batches on 4 devices, each batch one
// fleet/batch span plus, per frame, a fleet/frame span and
// fleet/anneal-stats and fleet/answer events at the frame's finish. A
// frame finishes after its own reads, and times on different devices
// almost never coincide, so (T0, Name) ties are as rare as in a served
// trace. Records come back in shuffled (host scheduling) order.
func shardedTrace(frames int) []telemetry.Record {
	const shards, devices, batchMax = 4, 4, 4
	r := rand.New(rand.NewSource(1))
	recs := make([]telemetry.Record, 0, frames*13/4)
	clock := make([]float64, shards*devices)
	for f, batch := 0, 0; f < frames; batch++ {
		shard, dev := batch%shards, (batch/shards)%devices
		label := fmt.Sprintf("s%d", shard)
		n := min(batchMax, frames-f)
		start := clock[shard*devices+dev] + r.Float64()*200
		finish := start + 600 + float64(n*100)
		clock[shard*devices+dev] = finish
		recs = append(recs, telemetry.Record{Type: "span", Name: "fleet/batch", T0: start, T1: finish, Attrs: telemetry.Attrs{
			"shard": label, "device": dev, "batch": batch, "frames": n, "faulted": false,
			"prog_us": 600.0, "anneal_us": 20.0, "readout_us": 5.0, "reads": 4 * n,
		}})
		for i := 0; i < n; i, f = i+1, f+1 {
			stream, seq := f%1000, f/1000
			done := start + 600 + float64((i+1)*100)
			recs = append(recs,
				telemetry.Record{Type: "span", Name: "fleet/frame", T0: start - r.Float64()*1000, T1: done, Attrs: telemetry.Attrs{
					"shard": label, "stream": stream, "seq": seq, "device": dev, "batch": batch,
					"attempts": 1, "queue_us": 100.0, "reads": 4,
				}},
				telemetry.Record{Type: "event", Name: "fleet/anneal-stats", T0: done, Attrs: telemetry.Attrs{
					"shard": label, "device": dev, "batch": batch, "stream": stream, "seq": seq,
					"reads": 4, "cand_energy": -3.0, "survived": 4, "mean_energy": -2.5,
					"best_energy": -3.0, "chain_break_rate": 0.0, "timeouts": 0, "storms": 0, "drifts": 0,
				}},
				telemetry.Record{Type: "event", Name: "fleet/answer", T0: done, Attrs: telemetry.Attrs{
					"shard": label, "stream": stream, "seq": seq, "device": dev, "source": "quantum",
				}},
			)
		}
	}
	r.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// BenchmarkAnalyze is one Monitor.Finish-sized monitoring pass over a
// ~40k-record sharded trace: the record sort plus the full analysis.
func BenchmarkAnalyze(b *testing.B) {
	recs := shardedTrace(12000)
	cfg := Config{Specs: DefaultSpecs(50000)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(recs, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}
