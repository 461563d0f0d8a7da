package annealer

import (
	"math"
	"testing"
	"unsafe"
)

// TestSVMCStepArgsLayout pins the svmcStepArgs field offsets that
// svmc_simd_amd64.s loads and stores as hard constants.
func TestSVMCStepArgsLayout(t *testing.T) {
	var a svmcStepArgs
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"rs0", unsafe.Offsetof(a.rs0), 0}, {"idx", unsafe.Offsetof(a.idx), 32},
		{"sn", unsafe.Offsetof(a.sn), 40}, {"rot", unsafe.Offsetof(a.rot), 56},
		{"lanoff", unsafe.Offsetof(a.lanoff), 64}, {"dE", unsafe.Offsetof(a.dE), 72},
		{"nb", unsafe.Offsetof(a.nb), 88}, {"na2", unsafe.Offsetof(a.na2), 104},
		{"beta", unsafe.Offsetof(a.beta), 120}, {"k", unsafe.Offsetof(a.k), 128},
		{"exm", unsafe.Offsetof(a.exm), 136}, {"live", unsafe.Offsetof(a.live), 138},
		{"rej", unsafe.Offsetof(a.rej), 140}, {"bounds", unsafe.Offsetof(a.bounds), 144},
		{"acc", unsafe.Offsetof(a.acc), 152}, {"offs", unsafe.Offsetof(a.offs), 160},
		{"cols", unsafe.Offsetof(a.cols), 288}, {"w", unsafe.Offsetof(a.w), 416},
		{"fld", unsafe.Offsetof(a.fld), 544}, {"dw", unsafe.Offsetof(a.dw), 552},
		{"dm", unsafe.Offsetof(a.dm), 680}, {"size", unsafe.Sizeof(a), 808},
		// The kernel indexes the 16-lane arrays by lane and sizes k, exm,
		// live, rej and the acc counters by these widths.
		{"lanes", uintptr(len(a.rs0)), 16}, {"k-width", unsafe.Sizeof(a.k), 8},
		{"live-width", unsafe.Sizeof(a.live), 2}, {"acc-width", unsafe.Sizeof(a.acc[0]), 8},
	} {
		if f.got != f.want {
			t.Errorf("svmcStepArgs.%s at offset %d, svmc_simd_amd64.s assumes %d", f.name, f.got, f.want)
		}
	}
}

// TestSVMCStartConstants pins the exact trigonometric values SVMC's
// start-state initialization hoists out of its loops (svmc.go). The
// forward start writes the literals cos(π/2) = 0 is NOT assumed —
// rotors start at θ = π/2 with z = 0 by definition — but sinT[i] = 1
// relies on sin(π/2) evaluating to exactly 1. The reverse start writes
// θ ∈ {0, π} with z = ±1 and sinT ∈ {0, sin π}; sin 0 = 0, cos 0 = 1
// and cos π = −1 are exact in IEEE-754, while sin π is the nonzero
// libm value at the double nearest π, so the hoisted constant must stay
// bit-identical to a fresh math.Sin call. If a Go release ever changed
// any of these, reverse/forward anneals would silently stop being
// bit-reproducible against committed goldens — this test turns that
// into a loud failure.
func TestSVMCStartConstants(t *testing.T) {
	if v := math.Sin(math.Pi / 2); v != 1 {
		t.Errorf("sin(π/2) = %x, want exactly 1", v)
	}
	if v := math.Cos(0); v != 1 {
		t.Errorf("cos(0) = %x, want exactly 1", v)
	}
	if v := math.Sin(0); v != 0 || math.Signbit(v) {
		t.Errorf("sin(0) = %x, want exactly +0", v)
	}
	if v := math.Cos(math.Pi); v != -1 {
		t.Errorf("cos(π) = %x, want exactly -1", v)
	}
	// sin π is NOT zero: math.Pi is below π, so sin(math.Pi) is a
	// residual ≈ 1.2246e-16. The reverse start stores this value for
	// down spins; pin the bit pattern of Go's implementation (slightly
	// off the correctly-rounded 0x3ca1a62633145c07 — that inaccuracy is
	// harmless, but it must not drift between releases, or reverse
	// anneals stop reproducing committed goldens).
	sinPi := math.Sin(math.Pi)
	if sinPi == 0 {
		t.Error("sin(math.Pi) evaluated to 0; the hoisted reverse-start constant assumes a nonzero residual")
	}
	if got := math.Float64bits(sinPi); got != 0x3ca1a62633145c00 {
		t.Errorf("sin(math.Pi) bits = %#x, want 0x3ca1a62633145c00", got)
	}
}
