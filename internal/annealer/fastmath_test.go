package annealer

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/rng"
)

func mulHiLo(x, n uint64) (hi, lo uint64) { return bits.Mul64(x, n) }

// The engines advance xoshiro state in locals; the inline step and the
// hoisted Lemire bound must reproduce rng.Source's stream bit for bit.
func TestXoshiroNextMatchesSource(t *testing.T) {
	a := rng.New(0xD1CE)
	b := rng.New(0xD1CE)
	s0, s1, s2, s3 := b.State()
	var x uint64
	for i := 0; i < 100_000; i++ {
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		if want := a.Uint64(); x != want {
			t.Fatalf("draw %d: xoshiroNext = %#x, want %#x", i, x, want)
		}
	}
	b.SetState(s0, s1, s2, s3)
	for i := 0; i < 100; i++ {
		if got, want := b.Uint64(), a.Uint64(); got != want {
			t.Fatalf("post-SetState draw %d: %#x != %#x", i, got, want)
		}
	}
	// The inline bounded draw: accepting lo >= threshold is exactly
	// Intn's accept condition, and rejections redraw in the same order.
	for _, n := range []int{1, 2, 3, 7, 512, 1000003} {
		a := rng.New(uint64(n))
		b := rng.New(uint64(n))
		nb := uint64(n)
		negnb := lemireThreshold(n)
		s0, s1, s2, s3 := b.State()
		for i := 0; i < 50_000; i++ {
			var x uint64
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			hi, lo := mulHiLo(x, nb)
			for lo < negnb {
				x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
				hi, lo = mulHiLo(x, nb)
			}
			if want := a.Intn(n); int(hi) != want {
				t.Fatalf("n=%d draw %d: inline Intn = %d, want %d", n, i, hi, want)
			}
		}
	}
}

// sinCosPi approximates (sin πu, cos πu); its documented error budget is
// well under 1e−13, far below the thermal noise of the SVMC dynamics.
func TestSinCosPiAccuracy(t *testing.T) {
	r := rng.New(0x51C0)
	const tol = 1e-13
	check := func(u float64) {
		t.Helper()
		s, c := sinCosPi(u)
		ws, wc := math.Sincos(math.Pi * u)
		if math.Abs(s-ws) > tol || math.Abs(c-wc) > tol {
			t.Fatalf("sinCosPi(%v) = (%v, %v), want (%v, %v)", u, s, c, ws, wc)
		}
		if s < 0 || s > 1+tol {
			t.Fatalf("sinCosPi(%v): sin %v outside [0, 1]", u, s)
		}
		if math.Abs(c) > 1+tol {
			t.Fatalf("sinCosPi(%v): |cos| = %v > 1", u, math.Abs(c))
		}
	}
	for _, u := range []float64{0, 0.25, 0.5, 0.75, 1, 1e-300, 1e-17, 0.2499999999, 0.5000000001} {
		check(u)
	}
	for i := 0; i < 5_000_000; i++ {
		check(r.Float64())
	}
}
