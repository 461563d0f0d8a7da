package modulation

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
)

func TestSchemeProperties(t *testing.T) {
	cases := []struct {
		s       Scheme
		bits    int
		order   int
		bitsI   int
		bitsQ   int
		name    string
		normInv float64 // 1/Norm squared = average raw energy
	}{
		{BPSK, 1, 2, 1, 0, "BPSK", 1},
		{QPSK, 2, 4, 1, 1, "QPSK", 2},
		{QAM16, 4, 16, 2, 2, "16-QAM", 10},
		{QAM64, 6, 64, 3, 3, "64-QAM", 42},
	}
	for _, c := range cases {
		if c.s.BitsPerSymbol() != c.bits || 1<<c.s.BitsPerSymbol() != c.order {
			t.Fatalf("%v: bits/order wrong", c.s)
		}
		if c.s.BitsPerDimI() != c.bitsI || c.s.BitsPerDimQ() != c.bitsQ {
			t.Fatalf("%v: dim bits wrong", c.s)
		}
		if c.s.String() != c.name {
			t.Fatalf("name %q", c.s.String())
		}
		if math.Abs(c.s.Norm()-1/math.Sqrt(c.normInv)) > 1e-12 {
			t.Fatalf("%v: norm %v", c.s, c.s.Norm())
		}
	}
}

func TestParseScheme(t *testing.T) {
	for _, name := range []string{"bpsk", "qpsk", "16qam", "64qam"} {
		if _, err := ParseScheme(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseScheme("256qam"); err == nil {
		t.Fatal("bad name accepted")
	}
}

// TestUnitAverageEnergy: §4.2's "unit gain signal".
func TestUnitAverageEnergy(t *testing.T) {
	for _, s := range Schemes {
		var e float64
		for _, x := range s.Alphabet() {
			e += real(x)*real(x) + imag(x)*imag(x)
		}
		if e /= float64(len(s.Alphabet())); math.Abs(e-1) > 1e-12 {
			t.Fatalf("%v: average energy %v", s, e)
		}
	}
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	r := rng.New(1)
	for _, s := range Schemes {
		for trial := 0; trial < 200; trial++ {
			bits := make([]int8, s.BitsPerSymbol())
			for i := range bits {
				if r.Bool() {
					bits[i] = 1
				}
			}
			x, err := s.Modulate(bits)
			if err != nil {
				t.Fatal(err)
			}
			back := s.Demodulate(x)
			for i := range bits {
				if bits[i] != back[i] {
					t.Fatalf("%v: round trip failed for %v -> %v -> %v", s, bits, x, back)
				}
			}
		}
	}
}

func TestModulateWrongLength(t *testing.T) {
	if _, err := QPSK.Modulate([]int8{1}); err == nil {
		t.Fatal("wrong bit count accepted")
	}
}

func TestAlphabetSizeAndUniqueness(t *testing.T) {
	for _, s := range Schemes {
		alpha := s.Alphabet()
		if len(alpha) != 1<<s.BitsPerSymbol() {
			t.Fatalf("%v: alphabet size %d", s, len(alpha))
		}
		for i := range alpha {
			for j := i + 1; j < len(alpha); j++ {
				if alpha[i] == alpha[j] {
					t.Fatalf("%v: duplicate point %v", s, alpha[i])
				}
			}
		}
	}
}

// TestModulateCoversAlphabet: every alphabet point is hit by exactly one
// bit pattern.
func TestModulateCoversAlphabet(t *testing.T) {
	for _, s := range Schemes {
		seen := map[complex128]int{}
		n := s.BitsPerSymbol()
		for mask := 0; mask < 1<<uint(n); mask++ {
			bits := make([]int8, n)
			for i := 0; i < n; i++ {
				bits[i] = int8(mask >> uint(n-1-i) & 1)
			}
			x, err := s.Modulate(bits)
			if err != nil {
				t.Fatal(err)
			}
			seen[x]++
		}
		if len(seen) != 1<<s.BitsPerSymbol() {
			t.Fatalf("%v: %d distinct symbols from %d patterns", s, len(seen), 1<<s.BitsPerSymbol())
		}
		for x, c := range seen {
			if c != 1 {
				t.Fatalf("%v: symbol %v produced by %d patterns", s, x, c)
			}
		}
	}
}

// TestGrayAdjacency: nearest-neighbour constellation points along one
// dimension differ in exactly one bit — the Gray property.
func TestGrayAdjacency(t *testing.T) {
	for _, s := range Schemes {
		b := s.BitsPerDimI()
		levels := Levels(b)
		for k := 1; k < len(levels); k++ {
			a, c := make([]int8, b), make([]int8, b)
			bitsFromLevel(a, levels[k-1])
			bitsFromLevel(c, levels[k])
			diff := 0
			for i := range a {
				if a[i] != c[i] {
					diff++
				}
			}
			if diff != 1 {
				t.Fatalf("%v: levels %v and %v differ in %d bits", s, levels[k-1], levels[k], diff)
			}
		}
	}
}

func TestLevels(t *testing.T) {
	got := Levels(2)
	want := []float64{-3, -1, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Levels(2) = %v", got)
		}
	}
	if l := Levels(1); l[0] != -1 || l[1] != 1 {
		t.Fatalf("Levels(1) = %v", l)
	}
}

// TestSpinDecompositionBijective: the weighted-spin decomposition maps
// {−1,+1}^b one-to-one onto the PAM levels.
func TestSpinDecompositionBijective(t *testing.T) {
	for _, b := range []int{1, 2, 3} {
		seen := map[float64]bool{}
		for mask := 0; mask < 1<<uint(b); mask++ {
			spins := make([]int8, b)
			for i := 0; i < b; i++ {
				if mask>>uint(i)&1 == 1 {
					spins[i] = 1
				} else {
					spins[i] = -1
				}
			}
			v := SpinsToLevel(spins)
			if seen[v] {
				t.Fatalf("b=%d: level %v duplicated", b, v)
			}
			seen[v] = true
			// Must be a valid level.
			valid := false
			for _, l := range Levels(b) {
				if l == v {
					valid = true
				}
			}
			if !valid {
				t.Fatalf("b=%d: %v is not a PAM level", b, v)
			}
			// Round trip.
			back := LevelToSpins(v, b)
			for i := range spins {
				if spins[i] != back[i] {
					t.Fatalf("b=%d: LevelToSpins(%v) = %v, want %v", b, v, back, spins)
				}
			}
		}
	}
}

func TestSliceIdempotentOnAlphabet(t *testing.T) {
	for _, s := range Schemes {
		for _, x := range s.Alphabet() {
			if got := s.Slice(x); cmplx.Abs(got-x) > 1e-12 {
				t.Fatalf("%v: Slice(%v) = %v", s, x, got)
			}
		}
	}
}

func TestSliceSnapsNoise(t *testing.T) {
	r := rng.New(2)
	for _, s := range Schemes {
		for trial := 0; trial < 100; trial++ {
			pt := s.Alphabet()[r.Intn(1<<s.BitsPerSymbol())]
			// Perturb by less than half the min distance: must snap back.
			eps := s.MinDistance() * 0.49
			noisy := pt + complex(eps/math.Sqrt2*0.9, eps/math.Sqrt2*0.9)
			if s == BPSK {
				noisy = pt + complex(eps*0.9, 0)
			}
			if got := s.Slice(noisy); cmplx.Abs(got-pt) > 1e-12 {
				t.Fatalf("%v: Slice did not snap %v back to %v (got %v)", s, noisy, pt, got)
			}
		}
	}
}

func TestSliceClampsOutOfRange(t *testing.T) {
	// Far outside the constellation, Slice returns the nearest corner.
	got := QAM16.Slice(complex(100, -100))
	want := complex(3*QAM16.Norm(), -3*QAM16.Norm())
	if cmplx.Abs(got-want) > 1e-12 {
		t.Fatalf("Slice(100,-100i) = %v, want %v", got, want)
	}
}

func TestMinDistance(t *testing.T) {
	// 16-QAM raw spacing 2, normalized by 1/√10.
	if d := QAM16.MinDistance(); math.Abs(d-2/math.Sqrt(10)) > 1e-12 {
		t.Fatalf("16-QAM min distance %v", d)
	}
	if d := BPSK.MinDistance(); math.Abs(d-2) > 1e-12 {
		t.Fatalf("BPSK min distance %v", d)
	}
}

func TestGrayCodeHelpers(t *testing.T) {
	for i := 0; i < 64; i++ {
		if grayDecode(grayEncode(i)) != i {
			t.Fatalf("gray round trip failed at %d", i)
		}
	}
}

func TestBPSKIsReal(t *testing.T) {
	for _, x := range BPSK.Alphabet() {
		if imag(x) != 0 {
			t.Fatalf("BPSK point %v has imaginary part", x)
		}
	}
}

func TestModulateBinaryRoundTrip(t *testing.T) {
	for _, s := range Schemes {
		n := s.BitsPerSymbol()
		for mask := 0; mask < 1<<uint(n); mask++ {
			bits := make([]int8, n)
			for i := 0; i < n; i++ {
				bits[i] = int8(mask >> uint(n-1-i) & 1)
			}
			x, err := s.ModulateBinary(bits)
			if err != nil {
				t.Fatal(err)
			}
			back := s.DemodulateBinary(x)
			for i := range bits {
				if bits[i] != back[i] {
					t.Fatalf("%v: binary round trip failed for %v", s, bits)
				}
			}
		}
	}
}

// TestModulateBinaryMatchesSpinDecomposition: the binary labeling is by
// construction the spin decomposition — bit k is (s_k+1)/2.
func TestModulateBinaryMatchesSpinDecomposition(t *testing.T) {
	s := QAM16
	bits := []int8{1, 0, 0, 1} // I: (+,−) → 2−1=1; Q: (−,+) → −2+1=−1
	x, err := s.ModulateBinary(bits)
	if err != nil {
		t.Fatal(err)
	}
	want := complex(1*s.Norm(), -1*s.Norm())
	if cmplx.Abs(x-want) > 1e-12 {
		t.Fatalf("got %v, want %v", x, want)
	}
}

func TestModulateBinaryCoversAlphabet(t *testing.T) {
	for _, s := range Schemes {
		seen := map[complex128]bool{}
		n := s.BitsPerSymbol()
		for mask := 0; mask < 1<<uint(n); mask++ {
			bits := make([]int8, n)
			for i := 0; i < n; i++ {
				bits[i] = int8(mask >> uint(i) & 1)
			}
			x, _ := s.ModulateBinary(bits)
			seen[x] = true
		}
		if len(seen) != 1<<s.BitsPerSymbol() {
			t.Fatalf("%v: binary labeling covers %d/%d points", s, len(seen), 1<<s.BitsPerSymbol())
		}
	}
}

func TestModulateBinaryWrongLength(t *testing.T) {
	if _, err := QPSK.ModulateBinary([]int8{1}); err == nil {
		t.Fatal("wrong bit count accepted")
	}
}

// grayLabels and spinLabels pin, per bits per dimension, each PAM level's
// Gray bit label (levels ascending) and its weighted-spin decomposition.
var (
	grayLabels = map[int][]string{
		1: {"0", "1"},
		2: {"00", "01", "11", "10"},
		3: {"000", "001", "011", "010", "110", "111", "101", "100"},
	}
	spinLabels = map[int][]string{
		1: {"-", "+"},
		2: {"--", "-+", "+-", "++"},
		3: {"---", "--+", "-+-", "-++", "+--", "+-+", "++-", "+++"},
	}
)

// TestDecodeTables pins the decode path for every scheme against literal
// tables: Demodulate and AppendDemodulate of every constellation point,
// and of the point pushed a third of a level step in each direction, give
// the Gray labels of its I then Q level; each level's spins convert to
// it and back. With room in dst, AppendDemodulate, SpinsToLevel and
// LevelToSpinsInto allocate nothing.
func TestDecodeTables(t *testing.T) {
	label := func(bits []int8) string {
		out := make([]byte, len(bits))
		for i, b := range bits {
			out[i] = '0' + byte(b)
		}
		return string(out)
	}
	for _, s := range Schemes {
		bi, bq := s.BitsPerDimI(), s.BitsPerDimQ()
		for ii, il := range Levels(bi) {
			qLevels, qLabels := []float64{0}, []string{""}
			if bq > 0 {
				qLevels, qLabels = Levels(bq), grayLabels[bq]
			}
			for qi, ql := range qLevels {
				want := grayLabels[bi][ii] + qLabels[qi]
				for _, d := range []complex128{0, complex(0.3, 0), complex(-0.3, 0.3), complex(0.3, -0.3)} {
					if bq == 0 {
						d = complex(real(d), 0)
					}
					x := (complex(il, ql) + d) * complex(s.Norm(), 0)
					if got := label(s.Demodulate(x)); got != want {
						t.Fatalf("%v: Demodulate(%v) = %s, want %s", s, x, got, want)
					}
					if got := s.AppendDemodulate([]int8{1}, x); label(got) != "1"+want {
						t.Fatalf("%v: AppendDemodulate(%v) = %s, want 1%s", s, x, label(got), want)
					}
				}
			}
		}
		for _, b := range []int{bi, bq} {
			if b == 0 {
				continue // BPSK has no Q dimension
			}
			for k, l := range Levels(b) {
				spins := make([]int8, b)
				for i, c := range spinLabels[b][k] {
					spins[i] = map[rune]int8{'-': -1, '+': 1}[c]
				}
				if got := SpinsToLevel(spins); got != l {
					t.Fatalf("b=%d: SpinsToLevel(%s) = %v, want %v", b, spinLabels[b][k], got, l)
				}
				back := LevelToSpins(l, b)
				for i := range spins {
					if back[i] != spins[i] {
						t.Fatalf("b=%d: LevelToSpins(%v) = %v, want %s", b, l, back, spinLabels[b][k])
					}
				}
			}
		}
		buf := make([]int8, 0, 8)
		spins := make([]int8, bi)
		x := complex(0.1, -0.2)
		if a := testing.AllocsPerRun(10, func() {
			buf = s.AppendDemodulate(buf[:0], x)
			LevelToSpinsInto(spins, SpinsToLevel(spins))
		}); a != 0 {
			t.Fatalf("%v: the decode path allocates %v objects", s, a)
		}
	}
}
