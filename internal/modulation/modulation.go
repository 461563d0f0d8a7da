// Package modulation implements the digital modulation schemes the paper
// evaluates (BPSK, QPSK, 16-QAM, 64-QAM): Gray-coded bit↔symbol maps,
// constellation alphabets, unit-average-energy normalization, and the
// per-dimension weighted-spin decomposition that the ML-to-QUBO reduction
// (QuAMax mapping, paper reference [29]) builds on.
//
// Every scheme is a square constellation: the in-phase (I) and quadrature
// (Q) dimensions each carry an independent pulse-amplitude (PAM) level
// from {±1, ±3, …}, except BPSK, which uses only the I dimension. A
// symbol's bits split into a Gray-coded label per dimension, so adjacent
// constellation points differ in one bit — the property Figure 4's
// soft-information scheme exploits.
package modulation

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
)

// Scheme identifies a modulation.
type Scheme int

// The schemes evaluated in the paper (§4.2).
const (
	BPSK Scheme = iota
	QPSK
	QAM16
	QAM64
)

// Schemes lists all supported schemes in evaluation order.
var Schemes = []Scheme{BPSK, QPSK, QAM16, QAM64}

// ParseScheme resolves a scheme name ("bpsk", "qpsk", "16qam", "64qam").
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "bpsk", "BPSK":
		return BPSK, nil
	case "qpsk", "QPSK":
		return QPSK, nil
	case "16qam", "16QAM", "qam16", "QAM16":
		return QAM16, nil
	case "64qam", "64QAM", "qam64", "QAM64":
		return QAM64, nil
	}
	return 0, fmt.Errorf("modulation: unknown scheme %q", name)
}

// String returns the conventional name.
func (s Scheme) String() string {
	switch s {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// BitsPerDimI returns the number of bits carried by the I dimension.
func (s Scheme) BitsPerDimI() int {
	switch s {
	case BPSK:
		return 1
	case QPSK:
		return 1
	case QAM16:
		return 2
	case QAM64:
		return 3
	}
	panic("modulation: unknown scheme")
}

// BitsPerDimQ returns the number of bits carried by the Q dimension
// (zero for BPSK, which is real-valued).
func (s Scheme) BitsPerDimQ() int {
	if s == BPSK {
		return 0
	}
	return s.BitsPerDimI()
}

// BitsPerSymbol returns the total bits per complex symbol.
func (s Scheme) BitsPerSymbol() int { return s.BitsPerDimI() + s.BitsPerDimQ() }

// Norm returns the scale factor applied to raw PAM amplitudes so the
// constellation has unit average symbol energy ("unit gain signal",
// §4.2): 1/√1 for BPSK, 1/√2 QPSK, 1/√10 16-QAM, 1/√42 64-QAM.
func (s Scheme) Norm() float64 {
	switch s {
	case BPSK:
		return 1
	case QPSK:
		return 1 / math.Sqrt2
	case QAM16:
		return 1 / math.Sqrt(10)
	case QAM64:
		return 1 / math.Sqrt(42)
	}
	panic("modulation: unknown scheme")
}

// Levels returns the raw (unnormalized) PAM amplitudes of one dimension
// in increasing order: {−1, 1}, {−3, −1, 1, 3}, or {−7 … 7}.
func Levels(bitsPerDim int) []float64 {
	n := 1 << uint(bitsPerDim)
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(2*i - n + 1)
	}
	return out
}

// grayEncode returns the Gray code of i.
func grayEncode(i int) int { return i ^ (i >> 1) }

// grayDecode inverts grayEncode.
func grayDecode(g int) int {
	i := 0
	for ; g != 0; g >>= 1 {
		i ^= g
	}
	return i
}

// levelFromBits maps a Gray-coded per-dimension bit label (MSB first) to
// its raw PAM amplitude.
func levelFromBits(bits []int8) float64 {
	g := 0
	for _, b := range bits {
		g = g<<1 | int(b&1)
	}
	idx := grayDecode(g)
	n := 1 << uint(len(bits))
	return float64(2*idx - n + 1)
}

// bitsFromLevel writes the Gray-coded bit label (MSB first) of a raw PAM
// amplitude, which must be a valid level of len(dst) bits, into dst.
func bitsFromLevel(dst []int8, level float64) {
	n := 1 << uint(len(dst))
	idx := int(math.Round((level + float64(n) - 1) / 2))
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	g := grayEncode(idx)
	for k := len(dst) - 1; k >= 0; k-- {
		dst[k] = int8(g & 1)
		g >>= 1
	}
}

// Modulate maps BitsPerSymbol() Gray-coded bits (I bits first, then Q) to
// a normalized constellation point.
func (s Scheme) Modulate(bits []int8) (complex128, error) {
	if len(bits) != s.BitsPerSymbol() {
		return 0, fmt.Errorf("modulation: %s needs %d bits, got %d", s, s.BitsPerSymbol(), len(bits))
	}
	bi := s.BitsPerDimI()
	i := levelFromBits(bits[:bi])
	q := 0.0
	if bq := s.BitsPerDimQ(); bq > 0 {
		q = levelFromBits(bits[bi:])
	}
	return complex(i*s.Norm(), q*s.Norm()), nil
}

// Demodulate hard-slices a (noisy) received point to the nearest
// constellation symbol's Gray-coded bits.
func (s Scheme) Demodulate(x complex128) []int8 {
	return s.AppendDemodulate(make([]int8, 0, s.BitsPerSymbol()), x)
}

// AppendDemodulate appends Demodulate(x)'s bits to dst and returns the
// extended slice; with room in dst it allocates nothing.
func (s Scheme) AppendDemodulate(dst []int8, x complex128) []int8 {
	bi, bq := s.BitsPerDimI(), s.BitsPerDimQ()
	at := len(dst)
	dst = slices.Grow(dst, bi+bq)[:at+bi+bq]
	bitsFromLevel(dst[at:at+bi], nearestLevel(real(x)/s.Norm(), bi))
	if bq > 0 {
		bitsFromLevel(dst[at+bi:], nearestLevel(imag(x)/s.Norm(), bq))
	}
	return dst
}

// nearestLevel snaps a raw amplitude to the closest valid PAM level.
func nearestLevel(v float64, bitsPerDim int) float64 {
	n := 1 << uint(bitsPerDim)
	idx := int(math.Round((v + float64(n) - 1) / 2))
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return float64(2*idx - n + 1)
}

// Slice returns the nearest normalized constellation point to x.
func (s Scheme) Slice(x complex128) complex128 {
	bi := s.BitsPerDimI()
	i := nearestLevel(real(x)/s.Norm(), bi) * s.Norm()
	q := 0.0
	if bq := s.BitsPerDimQ(); bq > 0 {
		q = nearestLevel(imag(x)/s.Norm(), bq) * s.Norm()
	}
	return complex(i, q)
}

// Alphabet returns every normalized constellation point, ordered by
// (I level, Q level).
func (s Scheme) Alphabet() []complex128 {
	iLevels := Levels(s.BitsPerDimI())
	var qLevels []float64
	if s.BitsPerDimQ() > 0 {
		qLevels = Levels(s.BitsPerDimQ())
	} else {
		qLevels = []float64{0}
	}
	out := make([]complex128, 0, len(iLevels)*len(qLevels))
	for _, iv := range iLevels {
		for _, qv := range qLevels {
			out = append(out, complex(iv*s.Norm(), qv*s.Norm()))
		}
	}
	return out
}

// SpinWeight returns the weight w_k such that a dimension's raw PAM
// amplitude is Σ_k w_k·s_k over spins s_k ∈ {−1, +1}: w_k = 2^{b−1−k}
// for b bits, so w = (2^{b−1}, …, 2, 1). This is the linear spin
// decomposition the ML-to-QUBO reduction uses; SpinsToLevel and
// LevelToSpins convert between the two labelings.
func SpinWeight(bitsPerDim, k int) float64 { return float64(int(1) << uint(bitsPerDim-1-k)) }

// SpinsToLevel evaluates the weighted-spin decomposition.
func SpinsToLevel(spins []int8) float64 {
	var v float64
	for k, s := range spins {
		v += SpinWeight(len(spins), k) * float64(s)
	}
	return v
}

// LevelToSpins inverts SpinsToLevel for a valid PAM level.
func LevelToSpins(level float64, bitsPerDim int) []int8 {
	spins := make([]int8, bitsPerDim)
	LevelToSpinsInto(spins, level)
	return spins
}

// LevelToSpinsInto is LevelToSpins into dst, for len(dst) bits.
func LevelToSpinsInto(dst []int8, level float64) {
	v := level
	for k := range dst {
		w := SpinWeight(len(dst), k)
		if v >= 0 {
			dst[k] = 1
			v -= w
		} else {
			dst[k] = -1
			v += w
		}
	}
}

// MinDistance returns the minimum Euclidean distance between distinct
// normalized constellation points.
func (s Scheme) MinDistance() float64 {
	alpha := s.Alphabet()
	best := math.Inf(1)
	for i := range alpha {
		for j := i + 1; j < len(alpha); j++ {
			if d := cmplx.Abs(alpha[i] - alpha[j]); d < best {
				best = d
			}
		}
	}
	return best
}

// ModulateBinary maps BitsPerSymbol() bits to a constellation point under
// the BINARY (weighted-spin) labeling instead of the Gray transmit
// labeling: bit k of each dimension is the spin-decomposition digit, so
// the resulting symbol's Ising encoding equals the bits directly. Coded
// systems that consume the annealer's per-spin soft output use this
// labeling end to end.
func (s Scheme) ModulateBinary(bits []int8) (complex128, error) {
	if len(bits) != s.BitsPerSymbol() {
		return 0, fmt.Errorf("modulation: %s needs %d bits, got %d", s, s.BitsPerSymbol(), len(bits))
	}
	bi := s.BitsPerDimI()
	i := SpinsToLevel(bitsToSpins(bits[:bi]))
	q := 0.0
	if bq := s.BitsPerDimQ(); bq > 0 {
		q = SpinsToLevel(bitsToSpins(bits[bi:]))
	}
	return complex(i*s.Norm(), q*s.Norm()), nil
}

// DemodulateBinary inverts ModulateBinary by hard slicing.
func (s Scheme) DemodulateBinary(x complex128) []int8 {
	bi := s.BitsPerDimI()
	bits := spinsToBits01(LevelToSpins(nearestLevel(real(x)/s.Norm(), bi), bi))
	if bq := s.BitsPerDimQ(); bq > 0 {
		bits = append(bits, spinsToBits01(LevelToSpins(nearestLevel(imag(x)/s.Norm(), bq), bq))...)
	}
	return bits
}

func bitsToSpins(bits []int8) []int8 {
	out := make([]int8, len(bits))
	for i, b := range bits {
		if b != 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

func spinsToBits01(spins []int8) []int8 {
	out := make([]int8, len(spins))
	for i, sp := range spins {
		if sp > 0 {
			out[i] = 1
		}
	}
	return out
}
