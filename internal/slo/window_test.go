package slo

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/metrics"
)

const testTick = 1000.0

// randomObs draws n (at, v) observations over about `ticks` ticks.
func randomObs(r *rand.Rand, n, ticks int) (at, v []float64) {
	at = make([]float64, n)
	v = make([]float64, n)
	for i := 0; i < n; i++ {
		at[i] = r.Float64() * float64(ticks) * testTick
		v[i] = r.Float64() * 5000
	}
	return at, v
}

// TestTumblingMatchesDirectRecompute: every tumbling bucket must equal a
// from-scratch recomputation over the raw events that fall in its
// window — the streaming path cannot drift from the definition.
func TestTumblingMatchesDirectRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(400)
		at, v := randomObs(r, n, 8)
		s := NewSeries(testTick)
		for i := range at {
			s.Observe(at[i], v[i])
		}
		buckets := s.Buckets()

		// Direct recomputation per occupied bucket index.
		byIdx := map[int64][]float64{}
		for i := range at {
			idx := int64(math.Floor(at[i] / testTick))
			byIdx[idx] = append(byIdx[idx], v[i])
		}
		if len(buckets) != len(byIdx) {
			t.Fatalf("trial %d: %d buckets, want %d", trial, len(buckets), len(byIdx))
		}
		for _, b := range buckets {
			vals := append([]float64(nil), byIdx[b.Index]...)
			sort.Float64s(vals)
			want := Bucket{Index: b.Index, T0: float64(b.Index) * testTick, T1: float64(b.Index+1) * testTick}
			finalize(&want, vals)
			if !reflect.DeepEqual(b, want) {
				t.Fatalf("trial %d bucket %d: got %+v want %+v", trial, b.Index, b, want)
			}
		}
	}
}

// TestSlidingShiftInvariantUnderReordering: permuting the observation
// sequence — including full shuffles, which subsume any within-tick
// reordering the concurrent emitters can produce — must not change a
// single sliding window.
func TestSlidingShiftInvariantUnderReordering(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(300)
		at, v := randomObs(r, n, 6)
		k := 1 + r.Intn(4)

		build := func(perm []int) []Bucket {
			s := NewSeries(testTick)
			for _, i := range perm {
				s.Observe(at[i], v[i])
			}
			return s.Sliding(k)
		}
		ident := make([]int, n)
		for i := range ident {
			ident[i] = i
		}
		base := build(ident)
		for shuffle := 0; shuffle < 3; shuffle++ {
			perm := append([]int(nil), ident...)
			r.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			if got := build(perm); !reflect.DeepEqual(got, base) {
				t.Fatalf("trial %d: sliding windows changed under reordering", trial)
			}
		}
	}
}

// TestSlidingCoversTumbling: a k=1 sliding window IS the tumbling
// window.
func TestSlidingCoversTumbling(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	at, v := randomObs(r, 250, 5)
	s := NewSeries(testTick)
	for i := range at {
		s.Observe(at[i], v[i])
	}
	if got, want := s.Sliding(1), s.Buckets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Sliding(1) != Buckets():\n%+v\n%+v", got, want)
	}
}

// TestAllAggregates: All() equals a direct recomputation over every
// observation.
func TestAllAggregates(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	at, v := randomObs(r, 500, 7)
	s := NewSeries(testTick)
	for i := range at {
		s.Observe(at[i], v[i])
	}
	all := s.All()
	vals := append([]float64(nil), v...)
	sort.Float64s(vals)
	if all.Count != len(vals) {
		t.Fatalf("All count %d want %d", all.Count, len(vals))
	}
	if all.P50 != metrics.NearestRank(vals, 50) || all.P99 != metrics.NearestRank(vals, 99) || all.Max != vals[len(vals)-1] {
		t.Fatalf("All percentiles mismatch: %+v", all)
	}
}

// TestRatioSeriesCounts: bucket bad/total equal direct counts, and are
// order-insensitive.
func TestRatioSeriesCounts(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 400
	at := make([]float64, n)
	bad := make([]bool, n)
	for i := range at {
		at[i] = r.Float64() * 5 * testTick
		bad[i] = r.Float64() < 0.3
	}
	s := NewRatioSeries(testTick)
	for i := range at {
		s.Observe(at[i], bad[i])
	}
	wantBad := map[int64]int{}
	wantTotal := map[int64]int{}
	for i := range at {
		idx := int64(math.Floor(at[i] / testTick))
		wantTotal[idx]++
		if bad[i] {
			wantBad[idx]++
		}
	}
	for _, b := range s.Buckets() {
		if b.Bad != wantBad[b.Index] || b.Total != wantTotal[b.Index] {
			t.Fatalf("bucket %d: got %d/%d want %d/%d", b.Index, b.Bad, b.Total, wantBad[b.Index], wantTotal[b.Index])
		}
	}
}

// TestSpanLoadConservation: total busy time across buckets equals the
// summed span lengths, and no bucket exceeds its tick width per span
// set that cannot overlap itself.
func TestSpanLoadConservation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	l := NewSpanLoad(testTick)
	var total float64
	cursor := 0.0
	for i := 0; i < 100; i++ {
		d := r.Float64() * 2500
		l.Observe(cursor, cursor+d)
		total += d
		cursor += d + r.Float64()*500
	}
	var got float64
	for _, b := range l.Buckets() {
		got += b.BusyMicros
		if b.BusyMicros > testTick+1e-9 {
			t.Fatalf("bucket %d busy %g exceeds tick", b.Index, b.BusyMicros)
		}
	}
	if math.Abs(got-total) > 1e-6 {
		t.Fatalf("busy time not conserved: got %g want %g", got, total)
	}
}
