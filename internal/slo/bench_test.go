package slo

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
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
			telemetry.String("shard", label), telemetry.Int("device", dev), telemetry.Int("batch", batch),
			telemetry.Int("frames", n), telemetry.Bool("faulted", false), telemetry.Float("prog_us", 600),
			telemetry.Float("anneal_us", 20), telemetry.Float("readout_us", 5), telemetry.Int("reads", 4*n),
		}})
		for i := 0; i < n; i, f = i+1, f+1 {
			stream, seq := f%1000, f/1000
			done := start + 600 + float64((i+1)*100)
			recs = append(recs,
				telemetry.Record{Type: "span", Name: "fleet/frame", T0: start - r.Float64()*1000, T1: done, Attrs: telemetry.Attrs{
					telemetry.String("shard", label), telemetry.Int("stream", stream), telemetry.Int("seq", seq),
					telemetry.Int("device", dev), telemetry.Int("batch", batch), telemetry.Int("attempts", 1),
					telemetry.Float("queue_us", 100), telemetry.Int("reads", 4),
				}},
				telemetry.Record{Type: "event", Name: "fleet/anneal-stats", T0: done, Attrs: telemetry.Attrs{
					telemetry.String("shard", label), telemetry.Int("device", dev), telemetry.Int("batch", batch),
					telemetry.Int("stream", stream), telemetry.Int("seq", seq), telemetry.Int("reads", 4),
					telemetry.Float("cand_energy", -3), telemetry.Int("survived", 4), telemetry.Float("mean_energy", -2.5),
					telemetry.Float("best_energy", -3), telemetry.Float("chain_break_rate", 0),
					telemetry.Int("timeouts", 0), telemetry.Int("storms", 0), telemetry.Int("drifts", 0),
				}},
				telemetry.Record{Type: "event", Name: "fleet/answer", T0: done, Attrs: telemetry.Attrs{
					telemetry.String("shard", label), telemetry.Int("stream", stream), telemetry.Int("seq", seq),
					telemetry.Int("device", dev), telemetry.String("source", "quantum"),
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

// Baselines of BenchmarkWriteJSONL with map attributes encoded by
// encoding/json, measured on the same host as the committed record
// (median of five alternating runs of 20 iterations).
const (
	baselineNsPerRecordJSONL     = 6892
	baselineAllocsPerRecordJSONL = 20
)

// BenchmarkWriteJSONL is one Tracer.WriteJSONL export of the same
// ~40k-record sharded trace: the record sort plus the encoding of every
// line. Set BENCH_JSON_DIR to record BENCH_TelemetryWriteJSONL.json.
func BenchmarkWriteJSONL(b *testing.B) {
	recs := shardedTrace(12000)
	tr := telemetry.NewTracer()
	for _, r := range recs {
		if r.Type == "span" {
			tr.Span(r.Name, r.T0, r.T1, r.Attrs)
		} else {
			tr.Event(r.Name, r.T0, r.Attrs)
		}
	}
	var out countingWriter
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		if err := tr.WriteJSONL(&out); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	records := float64(b.N * len(recs))
	perRecord := float64(b.Elapsed().Nanoseconds()) / records
	allocsPerRecord := float64(after.Mallocs-before.Mallocs) / records
	b.ReportMetric(perRecord, "ns/record")
	b.ReportMetric(allocsPerRecord, "allocs/record")
	if dir := os.Getenv(telemetry.BenchJSONDirEnv); dir != "" {
		rec := telemetry.BenchRecord{
			Name:       "TelemetryWriteJSONL",
			NsPerOp:    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			Iterations: b.N,
			Config: map[string]any{
				"records":                    len(recs),
				"bytes_per_op":               out.n / int64(b.N),
				"ns_per_record":              perRecord,
				"allocs_per_record":          allocsPerRecord,
				"baseline_ns_per_record":     baselineNsPerRecordJSONL,
				"baseline_allocs_per_record": baselineAllocsPerRecordJSONL,
				"speedup":                    baselineNsPerRecordJSONL / perRecord,
			},
			Series: fmt.Sprintf("records=%d ns/record=%.0f allocs/record=%.4f baseline=%d speedup=%.2fx",
				len(recs), perRecord, allocsPerRecord, baselineNsPerRecordJSONL, baselineNsPerRecordJSONL/perRecord),
		}
		if err := telemetry.WriteBenchJSON(dir, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
