// Package slo is the serving tier's monitoring brain: it consumes the
// simulated-clock telemetry stream the fleet/cran/pipeline layers emit
// (live, as a telemetry.RecordSink, or offline from an exported JSONL
// trace) and turns it into streaming SLIs over tumbling and sliding
// windows, multi-window burn-rate SLO alerts, per-device health scores,
// and per-frame critical-path decompositions.
//
// Determinism contract: the package is a pure consumer. It holds no
// locks the emitters contend on beyond a buffer append, consumes no RNG,
// and never feeds back into a Serve call — health scores are a dashboard
// diagnostic that no scheduler reads. Records arrive
// in host-scheduling order from parallel emitters, so every aggregate
// here is order-insensitive by construction: window buckets accumulate
// commutatively and sort their values at finalize, and the analysis pass
// itself runs over the record set sorted exactly the way
// telemetry.Tracer.Records orders its export. Same trace, same numbers —
// bit for bit, on any worker count.
package slo

import (
	"math"
	"sort"

	"repro/internal/metrics"
)

// Bucket is one finalized window: a tumbling tick, or a sliding window
// of several ticks ending at a tick boundary.
type Bucket struct {
	// Index is the tick index: the window covers simulated time
	// [T0, T1) with T1 = (Index+1)·tick.
	Index int64
	// T0 and T1 bound the window in simulated μs.
	T0, T1 float64
	// Count, Sum, Mean, P50, P99, Max summarize the values observed in
	// the window. Percentiles use the repo's nearest-rank convention.
	Count int
	Sum   float64
	Mean  float64
	P50   float64
	P99   float64
	Max   float64
}

// accum is one in-progress bucket. It only collects; every statistic —
// including the Sum, since float addition is not bitwise commutative —
// is computed at finalize over the SORTED values, which is what makes
// every Series aggregate insensitive to the host-scheduling order
// records arrive in.
type accum struct {
	values []float64
}

// Series buckets scalar observations (latencies, queue times) into
// tumbling windows of a fixed simulated-μs tick.
type Series struct {
	tick    float64
	buckets map[int64]*accum
}

// NewSeries returns a Series with the given tick width (μs, > 0).
func NewSeries(tick float64) *Series {
	return &Series{tick: tick, buckets: make(map[int64]*accum)}
}

// Observe records value v at simulated time at. NaN values are dropped.
func (s *Series) Observe(at, v float64) {
	if math.IsNaN(v) {
		return
	}
	idx := int64(math.Floor(at / s.tick))
	a := s.buckets[idx]
	if a == nil {
		a = &accum{}
		s.buckets[idx] = a
	}
	a.values = append(a.values, v)
}

// Count returns the total observations across all buckets.
func (s *Series) Count() int {
	n := 0
	for _, a := range s.buckets {
		n += len(a.values)
	}
	return n
}

// finalize summarizes a sorted value slice into b. The sum is taken in
// sorted order so the result is bit-identical however the values
// arrived.
func finalize(b *Bucket, values []float64) {
	b.Count = len(values)
	if len(values) == 0 {
		return
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	b.Sum = sum
	b.Mean = sum / float64(len(values))
	b.P50 = metrics.NearestRank(values, 50)
	b.P99 = metrics.NearestRank(values, 99)
	b.Max = values[len(values)-1]
}

// Buckets returns the tumbling windows, finalized and sorted by index.
// Empty ticks between occupied ones are NOT materialized — callers that
// need a dense timeline walk the index range themselves.
func (s *Series) Buckets() []Bucket {
	idxs := make([]int64, 0, len(s.buckets))
	for i := range s.buckets {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	out := make([]Bucket, 0, len(idxs))
	var vals []float64
	for _, i := range idxs {
		vals = append(vals[:0], s.buckets[i].values...)
		sort.Float64s(vals)
		b := Bucket{Index: i, T0: float64(i) * s.tick, T1: float64(i+1) * s.tick}
		finalize(&b, vals)
		out = append(out, b)
	}
	return out
}

// Sliding returns one window per occupied tick index, each covering the
// k ticks ending at that index (a sliding window advanced tick-by-tick).
// Reordering observations WITHIN a tick cannot change the output: bucket
// membership depends only on each observation's own timestamp, and the
// merged values are sorted before summarizing.
func (s *Series) Sliding(k int) []Bucket {
	if k < 1 {
		k = 1
	}
	idxs := make([]int64, 0, len(s.buckets))
	for i := range s.buckets {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	out := make([]Bucket, 0, len(idxs))
	var vals []float64
	for _, i := range idxs {
		vals = vals[:0]
		for j := i - int64(k) + 1; j <= i; j++ {
			if a, ok := s.buckets[j]; ok {
				vals = append(vals, a.values...)
			}
		}
		sort.Float64s(vals)
		b := Bucket{Index: i, T0: float64(i-int64(k)+1) * s.tick, T1: float64(i+1) * s.tick}
		finalize(&b, vals)
		out = append(out, b)
	}
	return out
}

// All returns a single bucket summarizing every observation in the
// series (the whole-run aggregate).
func (s *Series) All() Bucket {
	vals := make([]float64, 0, s.Count())
	lo, hi := int64(0), int64(0)
	first := true
	for i, a := range s.buckets {
		vals = append(vals, a.values...)
		if first || i < lo {
			lo = i
		}
		if first || i > hi {
			hi = i
		}
		first = false
	}
	sort.Float64s(vals)
	b := Bucket{Index: hi, T0: float64(lo) * s.tick, T1: float64(hi+1) * s.tick}
	finalize(&b, vals)
	return b
}

// RatioBucket is one window of a good/bad event ratio (availability,
// shed rate, latency-budget violations).
type RatioBucket struct {
	Index      int64
	T0, T1     float64
	Bad, Total int
}

// RatioSeries buckets binary (good/bad) events into tumbling windows.
type RatioSeries struct {
	tick    float64
	buckets map[int64]*RatioBucket
}

// NewRatioSeries returns a RatioSeries with the given tick width.
func NewRatioSeries(tick float64) *RatioSeries {
	return &RatioSeries{tick: tick, buckets: make(map[int64]*RatioBucket)}
}

// Observe records one event at simulated time at.
func (s *RatioSeries) Observe(at float64, bad bool) {
	idx := int64(math.Floor(at / s.tick))
	b := s.buckets[idx]
	if b == nil {
		b = &RatioBucket{Index: idx, T0: float64(idx) * s.tick, T1: float64(idx+1) * s.tick}
		s.buckets[idx] = b
	}
	b.Total++
	if bad {
		b.Bad++
	}
}

// Buckets returns the tumbling ratio windows sorted by index.
func (s *RatioSeries) Buckets() []RatioBucket {
	out := make([]RatioBucket, 0, len(s.buckets))
	for _, b := range s.buckets {
		out = append(out, *b)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// LoadBucket is one window of span-overlap load (QPU busy time).
type LoadBucket struct {
	Index      int64
	T0, T1     float64
	BusyMicros float64
	// Utilization is BusyMicros normalized by the window width, per
	// contributing capacity unit (the series does not know device counts;
	// callers feeding one device per series read this as busy fraction).
	Utilization float64
}

// SpanLoad accumulates span overlap per tumbling tick — the utilization
// SLI's window machinery. Overlap addition is commutative, so the result
// is independent of span arrival order.
type SpanLoad struct {
	tick    float64
	buckets map[int64]float64
}

// NewSpanLoad returns a SpanLoad with the given tick width.
func NewSpanLoad(tick float64) *SpanLoad {
	return &SpanLoad{tick: tick, buckets: make(map[int64]float64)}
}

// Observe distributes the busy interval [t0, t1] across the ticks it
// overlaps.
func (l *SpanLoad) Observe(t0, t1 float64) {
	if !(t1 > t0) {
		return
	}
	first := int64(math.Floor(t0 / l.tick))
	last := int64(math.Ceil(t1/l.tick)) - 1
	for i := first; i <= last; i++ {
		w0 := math.Max(t0, float64(i)*l.tick)
		w1 := math.Min(t1, float64(i+1)*l.tick)
		if w1 > w0 {
			l.buckets[i] += w1 - w0
		}
	}
}

// Buckets returns the load windows sorted by index.
func (l *SpanLoad) Buckets() []LoadBucket {
	idxs := make([]int64, 0, len(l.buckets))
	for i := range l.buckets {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	out := make([]LoadBucket, 0, len(idxs))
	for _, i := range idxs {
		busy := l.buckets[i]
		out = append(out, LoadBucket{
			Index: i, T0: float64(i) * l.tick, T1: float64(i+1) * l.tick,
			BusyMicros: busy, Utilization: busy / l.tick,
		})
	}
	return out
}
