package qubo

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomQUBO builds a dense random QUBO with coefficients in [-scale, scale].
func randomQUBO(r *rng.Source, n int, scale float64) *QUBO {
	q := New(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			q.SetCoeff(i, j, (2*r.Float64()-1)*scale)
		}
	}
	q.Offset = (2*r.Float64() - 1) * scale
	return q
}

func randomBits(r *rng.Source, n int) []int8 {
	b := make([]int8, n)
	for i := range b {
		if r.Bool() {
			b[i] = 1
		}
	}
	return b
}

func TestCoeffSymmetry(t *testing.T) {
	q := New(4)
	q.SetCoeff(1, 3, 2.5)
	if q.Coeff(3, 1) != 2.5 {
		t.Fatal("Coeff not order-independent")
	}
	q.AddCoeff(3, 1, 0.5)
	if q.Coeff(1, 3) != 3.0 {
		t.Fatal("AddCoeff not order-independent")
	}
}

func TestIdxCoversTriangle(t *testing.T) {
	n := 7
	q := New(n)
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			k := q.idx(i, j)
			if seen[k] {
				t.Fatalf("idx collision at (%d,%d)", i, j)
			}
			seen[k] = true
		}
	}
	if len(seen) != n*(n+1)/2 {
		t.Fatalf("idx covered %d slots, want %d", len(seen), n*(n+1)/2)
	}
}

func TestEnergyKnown(t *testing.T) {
	// E = q0 + 2·q1 − 3·q0q1 + 10
	q := New(2)
	q.SetCoeff(0, 0, 1)
	q.SetCoeff(1, 1, 2)
	q.SetCoeff(0, 1, -3)
	q.Offset = 10
	cases := []struct {
		bits []int8
		want float64
	}{
		{[]int8{0, 0}, 10},
		{[]int8{1, 0}, 11},
		{[]int8{0, 1}, 12},
		{[]int8{1, 1}, 10},
	}
	for _, c := range cases {
		if got := q.Energy(c.bits); got != c.want {
			t.Fatalf("E(%v) = %v, want %v", c.bits, got, c.want)
		}
	}
}

func TestFlipDeltaMatchesEnergy(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(12)
		q := randomQUBO(r, n, 5)
		bits := randomBits(r, n)
		for i := 0; i < n; i++ {
			before := q.Energy(bits)
			delta := q.FlipDelta(bits, i)
			bits[i] ^= 1
			after := q.Energy(bits)
			bits[i] ^= 1
			if math.Abs((after-before)-delta) > 1e-9 {
				t.Fatalf("FlipDelta mismatch: %v vs %v", delta, after-before)
			}
		}
	}
}

// TestQUBOIsingEnergyEquivalence is the core invariant: converting to
// Ising preserves the energy of EVERY configuration exactly.
func TestQUBOIsingEnergyEquivalence(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(10)
		q := randomQUBO(r, n, 3)
		is := q.ToIsing()
		for k := 0; k < 20; k++ {
			bits := randomBits(r, n)
			eq := q.Energy(bits)
			ei := is.Energy(BitsToSpins(bits))
			if math.Abs(eq-ei) > 1e-9 {
				t.Fatalf("energy mismatch: QUBO %v vs Ising %v", eq, ei)
			}
		}
	}
}

// TestIsingQUBORoundTrip: QUBO -> Ising -> QUBO preserves all energies.
func TestIsingQUBORoundTrip(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(10)
		q := randomQUBO(r, n, 3)
		q2 := q.ToIsing().ToQUBO()
		for k := 0; k < 20; k++ {
			bits := randomBits(r, n)
			if math.Abs(q.Energy(bits)-q2.Energy(bits)) > 1e-9 {
				t.Fatal("round trip changed energies")
			}
		}
	}
}

func TestIsingEnergyKnown(t *testing.T) {
	// E = s0 − 2·s1 + 3·s0·s1 + 1
	is := NewIsing(2)
	is.H[0], is.H[1] = 1, -2
	is.SetCoupling(0, 1, 3)
	is.Offset = 1
	cases := []struct {
		spins []int8
		want  float64
	}{
		{[]int8{1, 1}, 1 - 2 + 3 + 1},
		{[]int8{1, -1}, 1 + 2 - 3 + 1},
		{[]int8{-1, 1}, -1 - 2 - 3 + 1},
		{[]int8{-1, -1}, -1 + 2 + 3 + 1},
	}
	for _, c := range cases {
		if got := is.Energy(c.spins); got != c.want {
			t.Fatalf("E(%v) = %v, want %v", c.spins, got, c.want)
		}
	}
}

func TestIsingFlipDelta(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(10)
		q := randomQUBO(r, n, 2)
		is := q.ToIsing()
		spins := BitsToSpins(randomBits(r, n))
		for i := 0; i < n; i++ {
			before := is.Energy(spins)
			delta := is.FlipDelta(spins, i)
			spins[i] = -spins[i]
			after := is.Energy(spins)
			spins[i] = -spins[i]
			if math.Abs((after-before)-delta) > 1e-9 {
				t.Fatalf("Ising FlipDelta mismatch: %v vs %v", delta, after-before)
			}
		}
	}
}

func TestSetCouplingRemove(t *testing.T) {
	is := NewIsing(3)
	is.SetCoupling(0, 2, 1.5)
	if is.NumEdges() != 1 {
		t.Fatal("edge not added")
	}
	is.SetCoupling(2, 0, 0)
	if is.NumEdges() != 0 {
		t.Fatal("zero coupling not removed")
	}
	if is.Coupling(0, 2) != 0 {
		t.Fatal("stale coupling")
	}
}

func TestSelfCouplingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self coupling did not panic")
		}
	}()
	NewIsing(2).SetCoupling(1, 1, 1)
}

func TestEdgesSortedUnique(t *testing.T) {
	is := NewIsing(4)
	is.SetCoupling(2, 3, 1)
	is.SetCoupling(0, 1, 2)
	is.SetCoupling(1, 3, 3)
	edges := is.Edges()
	if len(edges) != 3 {
		t.Fatalf("got %d edges", len(edges))
	}
	for k := 1; k < len(edges); k++ {
		prev, cur := edges[k-1], edges[k]
		if prev.I > cur.I || (prev.I == cur.I && prev.J >= cur.J) {
			t.Fatal("edges not sorted")
		}
	}
	for _, e := range edges {
		if e.I >= e.J {
			t.Fatal("edge with I >= J")
		}
	}
}

func TestMaxAbsCoeff(t *testing.T) {
	is := NewIsing(3)
	if is.MaxAbsCoeff() != 0 {
		t.Fatal("empty max wrong")
	}
	is.H[1] = 3
	is.SetCoupling(0, 2, -5)
	if is.MaxAbsCoeff() != 5 {
		t.Fatalf("max = %v, want the coupling's 5", is.MaxAbsCoeff())
	}
	is.H[2] = -7
	if is.MaxAbsCoeff() != 7 {
		t.Fatalf("max = %v, want the field's 7", is.MaxAbsCoeff())
	}
}

func TestNormalized(t *testing.T) {
	is := NewIsing(2)
	is.H[0] = 4
	is.SetCoupling(0, 1, -8)
	is.Offset = 2
	norm, scale := is.Normalized()
	if math.Abs(scale-0.125) > 1e-12 {
		t.Fatalf("scale = %v", scale)
	}
	if norm.MaxAbsCoeff() != 1 {
		t.Fatalf("normalized max coeff %v", norm.MaxAbsCoeff())
	}
	// Energies scale uniformly: ratios of energy differences preserved.
	s1, s2 := []int8{1, 1}, []int8{1, -1}
	d1 := is.Energy(s1) - is.Energy(s2)
	d2 := norm.Energy(s1) - norm.Energy(s2)
	if math.Abs(d2-d1*scale) > 1e-12 {
		t.Fatal("normalization not uniform")
	}
	// Zero problem: unchanged.
	z, sc := NewIsing(3).Normalized()
	if sc != 1 || z.MaxAbsCoeff() != 0 {
		t.Fatal("zero problem normalization wrong")
	}
}

func TestValidate(t *testing.T) {
	q := New(3)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	q.SetCoeff(0, 1, math.NaN())
	if err := q.Validate(); err == nil {
		t.Fatal("NaN coefficient accepted")
	}
	is := NewIsing(3)
	is.SetCoupling(0, 1, 2)
	if err := is.Validate(); err != nil {
		t.Fatal(err)
	}
	is.H[2] = math.Inf(1)
	if err := is.Validate(); err == nil {
		t.Fatal("Inf field accepted")
	}
	// Asymmetric adjacency is invalid.
	bad := NewIsing(2)
	bad.Adj[0] = []Coupling{{To: 1, J: 5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("asymmetric adjacency accepted")
	}
}

func TestBitsSpinsRoundTrip(t *testing.T) {
	f := func(raw []bool) bool {
		bits := make([]int8, len(raw))
		for i, b := range raw {
			if b {
				bits[i] = 1
			}
		}
		back := SpinsToBits(BitsToSpins(bits))
		for i := range bits {
			if bits[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	q := New(2)
	q.SetCoeff(0, 1, 1)
	c := q.Clone()
	c.SetCoeff(0, 1, 9)
	if q.Coeff(0, 1) != 1 {
		t.Fatal("QUBO clone aliases")
	}
	is := NewIsing(2)
	is.SetCoupling(0, 1, 1)
	ic := is.Clone()
	ic.SetCoupling(0, 1, 9)
	if is.Coupling(0, 1) != 1 {
		t.Fatal("Ising clone aliases")
	}
}

// TestPersistenceInPackage mirrors the core-level persistence tests for
// package-local coverage of the elite selection.
func TestPersistenceInPackage(t *testing.T) {
	samples := []Sample{
		{Spins: []int8{1, -1}, Energy: -2},
		{Spins: []int8{1, 1}, Energy: -1},
		{Spins: []int8{-1, -1}, Energy: 10},
	}
	vars, values, err := PersistentSpins(samples, 0.67, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Elite = 2 best; spin 0 unanimous +1, spin 1 split.
	if len(vars) != 1 || vars[0] != 0 || values[0] != 1 {
		t.Fatalf("vars=%v values=%v", vars, values)
	}
}
