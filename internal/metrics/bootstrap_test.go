package metrics

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestBootstrapMeanCICoversTruth(t *testing.T) {
	// 400 draws from a known Bernoulli(0.3); the 95% CI should cover 0.3
	// and tighten as n grows.
	r := rng.New(7)
	var xs []float64
	for i := 0; i < 400; i++ {
		if r.Float64() < 0.3 {
			xs = append(xs, 1)
		} else {
			xs = append(xs, 0)
		}
	}
	ci := BootstrapMeanCI(xs, 800, 95, rng.New(11))
	if ci.Value < ci.Lo || ci.Value > ci.Hi {
		t.Fatalf("interval excludes its own point estimate: %+v", ci)
	}
	if ci.Lo > 0.3 || ci.Hi < 0.3 {
		t.Fatalf("95%% CI misses the true mean 0.3: %+v", ci)
	}
	if ci.Hi-ci.Lo > 0.12 {
		t.Fatalf("CI too wide for n=400: %+v", ci)
	}
	if ci.N != 400 || ci.Confidence != 95 {
		t.Fatalf("metadata wrong: %+v", ci)
	}
}

func TestBootstrapCIDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	a := BootstrapMeanCI(xs, 200, 90, rng.New(3))
	b := BootstrapMeanCI(xs, 200, 90, rng.New(3))
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c := BootstrapMeanCI(xs, 200, 90, rng.New(4))
	if a.Lo == c.Lo && a.Hi == c.Hi {
		t.Fatal("different seeds produced identical intervals (suspicious)")
	}
}

func TestBootstrapCIEmptyInput(t *testing.T) {
	ci := BootstrapMeanCI(nil, 100, 95, rng.New(1))
	if !math.IsNaN(ci.Value) || !math.IsNaN(ci.Lo) || !math.IsNaN(ci.Hi) {
		t.Fatalf("empty input should yield NaNs: %+v", ci)
	}
	ci2 := BootstrapCI2(nil, []float64{1}, func(a, b []float64) float64 { return 0 }, 100, 95, rng.New(1))
	if !math.IsNaN(ci2.Value) {
		t.Fatalf("empty arm should yield NaNs: %+v", ci2)
	}
}

func TestBootstrapCI2RatioSeparates(t *testing.T) {
	// Two clearly separated Bernoulli arms: the ratio CI must clear 1.
	ra := BernoulliVector(300, 600) // p = 0.5
	fa := BernoulliVector(60, 600)  // p = 0.1
	ratio := func(xs, ys []float64) float64 {
		my, mx := Mean(ys), Mean(xs)
		if my == 0 {
			return math.Inf(1)
		}
		return mx / my
	}
	ci := BootstrapCI2(ra, fa, ratio, 600, 95, rng.New(9))
	if !ci.Above(2) {
		t.Fatalf("ratio 5.0 arms should clear gate 2: %+v", ci)
	}
	if ci.Value < 4 || ci.Value > 6 {
		t.Fatalf("point estimate off: %+v", ci)
	}
}

func TestCIPredicates(t *testing.T) {
	a := CI{Lo: 1, Hi: 2}
	b := CI{Lo: 1.5, Hi: 3}
	c := CI{Lo: 2.5, Hi: 3}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("overlapping intervals reported disjoint")
	}
	if a.Overlaps(c) {
		t.Fatal("disjoint intervals reported overlapping")
	}
	if !a.Above(0.5) || a.Above(1) {
		t.Fatal("Above boundary wrong")
	}
	if !a.Below(2.5) || a.Below(2) {
		t.Fatal("Below boundary wrong")
	}
	nan := CI{Lo: math.NaN(), Hi: math.NaN()}
	if nan.Overlaps(a) || a.Overlaps(nan) || nan.Above(0) || nan.Below(0) {
		t.Fatal("NaN interval must fail every predicate")
	}
}

func TestBernoulliVector(t *testing.T) {
	xs := BernoulliVector(3, 5)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	if len(xs) != 5 || sum != 3 {
		t.Fatalf("bad vector: %v", xs)
	}
	if got := len(BernoulliVector(0, 0)); got != 0 {
		t.Fatalf("0/0 should be empty, got %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("successes > trials must panic")
		}
	}()
	BernoulliVector(6, 5)
}

func TestWilsonCI(t *testing.T) {
	ci := WilsonCI(30, 100)
	if ci.Value != 0.3 || ci.N != 100 {
		t.Fatalf("bad point estimate: %+v", ci)
	}
	if ci.Lo > 0.3 || ci.Hi < 0.3 || ci.Lo <= 0.2 || ci.Hi >= 0.42 {
		t.Fatalf("interval implausible for 30/100: %+v", ci)
	}
	empty := WilsonCI(0, 0)
	if !math.IsNaN(empty.Value) || empty.Lo != 0 || empty.Hi != 1 {
		t.Fatalf("0 trials should give vacuous interval: %+v", empty)
	}
}
