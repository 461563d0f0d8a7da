package metropolis

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// Accept must agree with the exact comparison u < exp(−x) on every
// input — the bracket is an accelerator, not an approximation.
func TestMetropolisExpExact(t *testing.T) {
	r := rng.New(0xFA57E)
	check := func(u, x float64) {
		t.Helper()
		want := u < math.Exp(-x)
		if got := Accept(u, x); got != want {
			t.Fatalf("Accept(%v, %v) = %v, want %v", u, x, got, want)
		}
	}
	for i := 0; i < 2_000_000; i++ {
		u := r.Float64()
		x := r.Float64() * 50
		check(u, x)
		// Adversarial draws hugging the threshold, where the bracket must
		// fall back to the exact comparison.
		e := math.Exp(-x)
		check(e, x)
		check(math.Nextafter(e, 0), x)
		check(math.Nextafter(e, 1), x)
	}
	// Grid-edge and extreme cases.
	for k := 0; k <= GridMax+3; k++ {
		x := float64(k) / GridStep
		for _, u := range []float64{0, 1e-300, math.Exp(-x), 0.999999999999, 0.5} {
			check(u, x)
		}
	}
	check(0, 800) // beyond exp underflow: exp(−x) == 0 exactly, reject
	check(0, 100) // exp(−x) tiny but nonzero, u == 0 accepts
}
