package slo

import (
	"sort"

	"repro/internal/telemetry"
)

// FramePath is one served frame's critical-path decomposition: where the
// frame's latency actually went, reconstructed from its "fleet/frame"
// span joined with the serving batch's "fleet/batch" span. The
// components tile the latency exactly:
//
//	Latency = Queue + Program + BatchWait + Anneal + Readout
//
// where Queue is time from arrival to the final batch's launch (retried
// frames' failed cycles are queue time — the frame was not being
// annealed), Program is the device programming overhead, BatchWait is
// time the batch spent on OTHER frames' reads before this frame's, and
// Anneal/Readout are the frame's own reads.
type FramePath struct {
	Shard     string  `json:"shard,omitempty"`
	Stream    int     `json:"stream"`
	Seq       int     `json:"seq"`
	Device    int     `json:"device"`
	Batch     int     `json:"batch"`
	Arrival   float64 `json:"arrival_us"`
	Finish    float64 `json:"finish_us"`
	Latency   float64 `json:"latency_us"`
	Queue     float64 `json:"queue_us"`
	Program   float64 `json:"program_us"`
	BatchWait float64 `json:"batch_wait_us"`
	Anneal    float64 `json:"anneal_us"`
	Readout   float64 `json:"readout_us"`
	Attempts  int     `json:"attempts"`
	Retried   bool    `json:"retried,omitempty"`
	// Dominant names the largest component.
	Dominant string `json:"dominant"`
}

type batchInfo struct {
	t0, t1                float64
	prog, anneal, readout float64
	ok                    bool
}

type batchKey struct {
	shard string
	batch int
}

// critPaths collects what a critical path joins as the records go by:
// each fleet/batch span's timing by (shard, batch), and the fleet/frame
// spans themselves, which must stay in place until paths is called.
type critPaths struct {
	batches map[batchKey]batchInfo
	frames  []*telemetry.Record
}

func (c *critPaths) batch(r *telemetry.Record) {
	shard, _ := r.Attrs.Str("shard")
	id, ok := r.Attrs.Int("batch")
	if !ok {
		return
	}
	prog, _ := r.Attrs.Num("prog_us")
	anneal, _ := r.Attrs.Num("anneal_us")
	readout, _ := r.Attrs.Num("readout_us")
	if c.batches == nil {
		c.batches = make(map[batchKey]batchInfo)
	}
	c.batches[batchKey{shard, id}] = batchInfo{
		t0: r.T0, t1: r.T1, prog: prog, anneal: anneal, readout: readout, ok: true,
	}
}

func (c *critPaths) frame(r *telemetry.Record) { c.frames = append(c.frames, r) }

// paths joins every collected frame with its batch. A frame whose batch
// span is missing from the trace keeps only its queue time from the frame
// span's own attributes. Output is sorted by (Shard, Stream, Seq).
func (c *critPaths) paths() []FramePath {
	var out []FramePath
	if len(c.frames) > 0 {
		out = make([]FramePath, 0, len(c.frames))
	}
	for _, r := range c.frames {
		shard, _ := r.Attrs.Str("shard")
		stream, _ := r.Attrs.Int("stream")
		seq, _ := r.Attrs.Int("seq")
		device, _ := r.Attrs.Int("device")
		batch, _ := r.Attrs.Int("batch")
		attempts, _ := r.Attrs.Int("attempts")
		queue, _ := r.Attrs.Num("queue_us")
		reads, _ := r.Attrs.Num("reads")

		fp := FramePath{
			Shard: shard, Stream: stream, Seq: seq,
			Device: device, Batch: batch,
			Arrival: r.T0, Finish: r.T1, Latency: r.T1 - r.T0,
			Queue: queue, Attempts: attempts, Retried: attempts > 1,
		}
		if b := c.batches[batchKey{shard, batch}]; b.ok {
			fp.Program = b.prog
			fp.Anneal = reads * b.anneal
			fp.Readout = reads * b.readout
			// Everything between batch launch and this frame's finish that
			// is not programming or the frame's own reads is time spent on
			// batch-mates' reads.
			wait := (fp.Finish - b.t0) - fp.Program - fp.Anneal - fp.Readout
			if wait > 0 {
				fp.BatchWait = wait
			}
		}
		fp.Dominant = dominant(fp)
		out = append(out, fp)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Shard != out[b].Shard {
			return out[a].Shard < out[b].Shard
		}
		if out[a].Stream != out[b].Stream {
			return out[a].Stream < out[b].Stream
		}
		return out[a].Seq < out[b].Seq
	})
	return out
}

func dominant(fp FramePath) string {
	best, name := fp.Queue, "queue"
	for _, c := range []struct {
		v float64
		n string
	}{
		{fp.Program, "program"},
		{fp.BatchWait, "batch-wait"},
		{fp.Anneal, "anneal"},
		{fp.Readout, "readout"},
	} {
		if c.v > best {
			best, name = c.v, c.n
		}
	}
	return name
}
