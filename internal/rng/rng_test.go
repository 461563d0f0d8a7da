package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("zero-seeded source looks degenerate: %d distinct of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split(1)
	c2 := root.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split children with different keys collided %d times", same)
	}
}

func TestSplitStability(t *testing.T) {
	// Splitting the same key from identical parents yields identical streams,
	// regardless of other splits performed.
	p1 := New(9)
	p2 := New(9)
	_ = p1.Split(99) // extra split must not perturb the (parent, key) stream
	a := p1.Split(5)
	b := p2.Split(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("split stream not stable under unrelated splits")
		}
	}
}

func TestSplitString(t *testing.T) {
	root := New(3)
	a := root.SplitString("fig8/run1")
	b := New(3).SplitString("fig8/run1")
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitString not deterministic")
	}
	c := New(3).SplitString("fig8/run2")
	if New(3).SplitString("fig8/run1").Uint64() == c.Uint64() {
		t.Fatal("distinct names produced identical first outputs")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(17)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(19)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(23)
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestSpinBalance(t *testing.T) {
	r := New(29)
	n := 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += int(r.Spin())
	}
	if math.Abs(float64(sum)) > 4*math.Sqrt(float64(n)) {
		t.Fatalf("spins unbalanced: sum=%d over %d draws", sum, n)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	for _, n := range []int{0, 1, 2, 5, 50} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflepreservesMultiset(t *testing.T) {
	r := New(37)
	xs := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: %v", xs)
	}
}

func TestMul64Property(t *testing.T) {
	// mul64 must agree with big-integer multiplication. Check via the
	// identity on the low 64 bits and a few structured cases.
	f := func(a, b uint64) bool {
		_, lo := mul64(a, b)
		return lo == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	hi, lo := mul64(1<<63, 2)
	if hi != 1 || lo != 0 {
		t.Fatalf("mul64(2^63,2) = (%d,%d), want (1,0)", hi, lo)
	}
	hi, lo = mul64(0xffffffffffffffff, 0xffffffffffffffff)
	if hi != 0xfffffffffffffffe || lo != 1 {
		t.Fatalf("mul64(max,max) = (%#x,%#x)", hi, lo)
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(41)
	trues := 0
	n := 100000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)-float64(n)/2) > 4*math.Sqrt(float64(n)/4) {
		t.Fatalf("Bool unbalanced: %d of %d", trues, n)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.NormFloat64()
	}
	_ = sink
}

// TestNormFloat64sMatchesCalls holds the batched normals to successive
// NormFloat64 calls: for every count from 0 to 1,100, odd and even, and
// with or without a spare already cached, the values, the final
// xoshiro state and the cached spare must be bit-identical.
func TestNormFloat64sMatchesCalls(t *testing.T) {
	root := New(0x9a55)
	got := make([]float64, 1100)
	for count := 0; count <= 1100; count++ {
		for _, spare := range []bool{false, true} {
			a := root.Split(uint64(2*count) + map[bool]uint64{false: 0, true: 1}[spare])
			if spare {
				a.NormFloat64() // leaves the pair's second value cached
			}
			b := *a
			dst := got[:count]
			b.NormFloat64s(dst)
			for i := range dst {
				if want := a.NormFloat64(); math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("count %d, spare %v: value %d is %v, NormFloat64 gives %v", count, spare, i, dst[i], want)
				}
			}
			if a.s != b.s || a.hasSpare != b.hasSpare || math.Float64bits(a.spare) != math.Float64bits(b.spare) {
				t.Fatalf("count %d, spare %v: final state %v/%v/%v, NormFloat64 leaves %v/%v/%v",
					count, spare, b.s, b.hasSpare, b.spare, a.s, a.hasSpare, a.spare)
			}
		}
	}
}

// TestPolarScaleMatchesLog pins polarScale's log to math.Log at the
// radii where its reduction branches: at and beside f1 = √2/2, where the
// exponent step flips; at the smallest radius a pair can draw (2⁻¹⁰⁴);
// just below 1; across exponents; and at random radii. Each batch length
// from 1 to 9 runs the four-pair blocks and the Go remainder.
func TestPolarScaleMatchesLog(t *testing.T) {
	edge := math.Float64frombits(0x3FE6A09E667F3BCD) // √2/2: f1 at the boundary
	radii := []float64{edge, math.Nextafter(edge, 0), math.Nextafter(edge, 1), edge / 2, edge / 1024,
		0x1p-104, math.Nextafter(1, 0), 0.5, 0.25, 0.75, 0x1p-52, 3 * 0x1p-60}
	r := New(0x109)
	for len(radii) < 4096 {
		radii = append(radii, r.Float64()*math.Pow(2, -float64(r.Intn(100))))
	}
	for _, s := range radii {
		if s <= 0 || s >= 1 {
			continue
		}
		for width := 1; width <= 9; width++ {
			rad := make([]float64, width)
			uv := make([]float64, 2*width)
			for p := range rad {
				rad[p] = s
				uv[2*p], uv[2*p+1] = 0.5+float64(p), -0.25
			}
			want := append([]float64(nil), uv...)
			polarScaleGo(want, rad)
			polarScale(uv, rad)
			for i := range uv {
				if math.Float64bits(uv[i]) != math.Float64bits(want[i]) {
					t.Fatalf("radius %v (%#x), width %d, value %d: batched %v, math.Log path %v",
						s, math.Float64bits(s), width, i, uv[i], want[i])
				}
			}
		}
	}
}

func BenchmarkNormFloat64s(b *testing.B) {
	r := New(1)
	dst := make([]float64, 528) // one 32-spin ICE program's draws
	b.SetBytes(int64(8 * len(dst)))
	for i := 0; i < b.N; i++ {
		r.NormFloat64s(dst)
	}
}
