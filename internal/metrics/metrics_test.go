package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/qubo"
)

func TestDeltaEPercent(t *testing.T) {
	// Ground −100, sample −90: 10% away.
	if got := DeltaEPercent(-90, -100); math.Abs(got-10) > 1e-12 {
		t.Fatalf("ΔE%% = %v", got)
	}
	// At the optimum: 0%.
	if got := DeltaEPercent(-100, -100); got != 0 {
		t.Fatalf("ΔE%% at optimum = %v", got)
	}
	// Matches the paper's |E| form on the negative range:
	// 100·(|Eg|−|Es|)/|Eg|.
	eg, es := -57.3, -31.9
	want := 100 * (math.Abs(eg) - math.Abs(es)) / math.Abs(eg)
	if got := DeltaEPercent(es, eg); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ΔE%% = %v, want paper form %v", got, want)
	}
}

func TestDeltaEPercentMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(math.Mod(a, 100)), math.Abs(math.Mod(b, 100))
		if a == b {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		// Higher energy → higher ΔE%.
		return DeltaEPercent(-lo, -200) > DeltaEPercent(-hi, -200)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaEPercentZeroGroundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero ground energy accepted")
		}
	}()
	DeltaEPercent(1, 0)
}

func TestDeltaEForIsingStripsOffset(t *testing.T) {
	is := qubo.NewIsing(2)
	is.Offset = 50
	// Total energies 50 (ground, offset-free 0? no—) ground total 40 →
	// offset-free −10; sample total 45 → offset-free −5: ΔE% = 50%.
	got := DeltaEForIsing(is, 45, 40)
	if math.Abs(got-50) > 1e-12 {
		t.Fatalf("ΔE%% = %v", got)
	}
}

func TestSuccessProbability(t *testing.T) {
	samples := []qubo.Sample{
		{Energy: -10}, {Energy: -10}, {Energy: -9}, {Energy: -5},
	}
	if got := SuccessProbability(samples, -10, 1e-9); got != 0.5 {
		t.Fatalf("p★ = %v", got)
	}
	if got := SuccessProbability(nil, -10, 0); got != 0 {
		t.Fatalf("empty p★ = %v", got)
	}
	// Tolerance widens the success set.
	if got := SuccessProbability(samples, -10, 1.5); got != 0.75 {
		t.Fatalf("tolerant p★ = %v", got)
	}
}

func TestTTSKnownValues(t *testing.T) {
	// p★ = 0.5, ct = 99: runs = ln(0.01)/ln(0.5) ≈ 6.64.
	got := TTS(2.0, 0.5, 99)
	want := 2.0 * math.Log(0.01) / math.Log(0.5)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("TTS = %v, want %v", got, want)
	}
	if !math.IsInf(TTS(1, 0, 99), 1) {
		t.Fatal("p★=0 should give infinite TTS")
	}
	if TTS(3, 1, 99) != 3 {
		t.Fatal("p★=1 should give one duration")
	}
	// Floor at one run: p★ = 0.999, ct = 50 — formula would say < 1 run.
	if TTS(3, 0.999, 50) != 3 {
		t.Fatal("TTS not floored at one run")
	}
}

func TestTTSMonotoneInPstar(t *testing.T) {
	prev := math.Inf(1)
	for _, p := range []float64{0.01, 0.05, 0.2, 0.5, 0.9} {
		cur := TTS(1, p, 99)
		if cur > prev {
			t.Fatalf("TTS not decreasing in p★ at %v", p)
		}
		prev = cur
	}
}

func TestTTSPanics(t *testing.T) {
	for _, f := range []func(){
		func() { TTS(0, 0.5, 99) },
		func() { TTS(1, 0.5, 0) },
		func() { TTS(1, 0.5, 100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad TTS arguments accepted")
				}
			}()
			f()
		}()
	}
}

func TestMeanMedianPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Mean(xs) != 2.5 {
		t.Fatalf("mean %v", Mean(xs))
	}
	if Median(xs) != 2.5 {
		t.Fatalf("median %v", Median(xs))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 4 {
		t.Fatal("percentile endpoints wrong")
	}
	if got := Percentile([]float64{1, 2, 3, 4, 5}, 50); got != 3 {
		t.Fatalf("odd median %v", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty input should be NaN")
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad percentile accepted")
		}
	}()
	Percentile([]float64{1}, 101)
}

// ramp returns the sorted values 1 … n.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 50, 0},
		{"n=1 p0", []float64{7}, 0, 7},
		{"n=1 p50", []float64{7}, 50, 7},
		{"n=1 p100", []float64{7}, 100, 7},
		{"p0 is the minimum", ramp(10), 0, 1},
		{"p100 is the maximum", ramp(10), 100, 10},
		{"p99 of 60 is the 60th", ramp(60), 99, 60},
		{"p99 of 100 is the 99th", ramp(100), 99, 99},
		{"p95 of 20 is the 19th", ramp(20), 95, 19},
		{"p50 of 4 is the 2nd", ramp(4), 50, 2},
	}
	for _, c := range cases {
		if got := NearestRank(c.sorted, c.p); got != c.want {
			t.Errorf("%s: NearestRank = %v, want %v", c.name, got, c.want)
		}
	}
	// The median rank ⌈n/2⌉ is the rank the reports used to take by
	// rounding n/2 half-up, so p50 did not move when they switched.
	for n := 1; n <= 200; n++ {
		xs := ramp(n)
		halfUp := int(0.5*float64(n) + 0.5)
		if got := NearestRank(xs, 50); got != xs[halfUp-1] {
			t.Fatalf("n=%d: p50 = %v, half-up rule gives %v", n, got, xs[halfUp-1])
		}
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("interval [%v, %v] excludes the point estimate", lo, hi)
	}
	if lo < 0.38 || hi > 0.62 {
		t.Fatalf("interval [%v, %v] implausibly wide for n=100", lo, hi)
	}
	// Extreme proportions stay in [0, 1].
	lo, hi = WilsonInterval(0, 10)
	if lo != 0 || hi > 0.35 {
		t.Fatalf("k=0 interval [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(10, 10)
	if hi != 1 || lo < 0.65 {
		t.Fatalf("k=n interval [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatal("empty interval should be [0, 1]")
	}
	// Narrower with more data.
	lo1, hi1 := WilsonInterval(5, 10)
	lo2, hi2 := WilsonInterval(500, 1000)
	if hi2-lo2 >= hi1-lo1 {
		t.Fatal("interval not shrinking with n")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0.5, 1, 3, 3.9, 9.9, -5, 15} {
		h.Add(x)
	}
	if h.Total != 7 {
		t.Fatalf("total %d", h.Total)
	}
	// Bin 0 holds 0.5, 1, and the clamped −5.
	if h.Counts[0] != 3 {
		t.Fatalf("bin 0 count %d", h.Counts[0])
	}
	// Bin 4 holds 9.9 and the clamped 15.
	if h.Counts[4] != 2 {
		t.Fatalf("bin 4 count %d", h.Counts[4])
	}
	var total float64
	for i := range h.Counts {
		total += h.Fraction(i)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("fractions sum to %v", total)
	}
	if h.BinCenter(0) != 1 || h.BinCenter(4) != 9 {
		t.Fatal("bin centers wrong")
	}
	if h.String() == "" {
		t.Fatal("empty render")
	}
}

func TestHistogramBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad histogram accepted")
		}
	}()
	NewHistogram(5, 5, 3)
}

func TestHistogramEmptyFraction(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	if h.Fraction(0) != 0 {
		t.Fatal("empty fraction not 0")
	}
}
