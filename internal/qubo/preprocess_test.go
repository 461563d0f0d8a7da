package qubo

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestPreprocessFixesDominatedVariable(t *testing.T) {
	// q0 has a large positive diagonal no interaction can overcome: rule 1
	// fixes it to 0. q1's diagonal is strongly negative: rule 2 fixes to 1.
	q := New(3)
	q.SetCoeff(0, 0, 10)
	q.SetCoeff(0, 1, -1)
	q.SetCoeff(0, 2, -2)
	q.SetCoeff(1, 1, -10)
	q.SetCoeff(1, 2, 1)
	q.SetCoeff(2, 2, 0.5)

	res := Preprocess(q)
	if !res.Simplified {
		t.Fatal("no simplification detected")
	}
	fixedVals := map[int]int8{}
	for _, f := range res.Fixed {
		fixedVals[f.Index] = f.Value
	}
	if v, ok := fixedVals[0]; !ok || v != 0 {
		t.Fatalf("q0 not fixed to 0: %v", res.Fixed)
	}
	if v, ok := fixedVals[1]; !ok || v != 1 {
		t.Fatalf("q1 not fixed to 1: %v", res.Fixed)
	}
}

// TestPreprocessPreservesOptimum is the correctness property of the whole
// scheme: the reduced problem's optimum, expanded back, must equal the
// original problem's global optimum energy.
func TestPreprocessPreservesOptimum(t *testing.T) {
	r := rng.New(30)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(10)
		q := randomQUBO(r, n, 3)
		// Strengthen some diagonals so fixing actually triggers sometimes.
		for i := 0; i < n; i++ {
			if r.Float64() < 0.3 {
				q.AddCoeff(i, i, (2*r.Float64()-1)*3*float64(n))
			}
		}
		orig, err := Exhaustive(q)
		if err != nil {
			t.Fatal(err)
		}
		res := Preprocess(q)
		red, err := Exhaustive(res.Reduced)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(red.Energy-orig.Energy) > 1e-9 {
			t.Fatalf("preprocessing changed optimum: %v vs %v (fixed %d)", red.Energy, orig.Energy, len(res.Fixed))
		}
		full := res.Expand(red.Bits)
		if math.Abs(q.Energy(full)-orig.Energy) > 1e-9 {
			t.Fatalf("expanded assignment has energy %v, want %v", q.Energy(full), orig.Energy)
		}
	}
}

// TestPreprocessEnergyEquivalenceAllAssignments: the reduction preserves
// energies pointwise, not just at the optimum.
func TestPreprocessEnergyEquivalenceAllAssignments(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(8)
		q := randomQUBO(r, n, 2)
		for i := 0; i < n; i++ {
			if r.Float64() < 0.4 {
				q.AddCoeff(i, i, (2*r.Float64()-1)*4*float64(n))
			}
		}
		res := Preprocess(q)
		m := res.Reduced.n
		bits := make([]int8, m)
		for mask := 0; mask < 1<<uint(m); mask++ {
			for i := 0; i < m; i++ {
				bits[i] = int8(mask >> uint(i) & 1)
			}
			full := res.Expand(bits)
			if math.Abs(res.Reduced.Energy(bits)-q.Energy(full)) > 1e-9 {
				t.Fatal("reduced energy differs from original on expansion")
			}
		}
	}
}

func TestPreprocessFixedPoint(t *testing.T) {
	// Chain where fixing one variable cascades: q0 fixed by rule 2, which
	// then dominates q1's balance, and so on.
	q := New(3)
	q.SetCoeff(0, 0, -10)
	q.SetCoeff(0, 1, 3)
	q.SetCoeff(1, 1, -2)
	q.SetCoeff(1, 2, 1)
	q.SetCoeff(2, 2, -0.5)
	res := Preprocess(q)
	// All variables should end up fixed (the residual has a trivial form).
	if res.Reduced.n != 0 {
		// Even if not all fixed, the invariant must hold; check it.
		red, err := Exhaustive(res.Reduced)
		if err != nil {
			t.Fatal(err)
		}
		orig, _ := Exhaustive(q)
		if math.Abs(red.Energy-orig.Energy) > 1e-9 {
			t.Fatal("cascade broke optimum")
		}
		return
	}
	orig, _ := Exhaustive(q)
	if math.Abs(res.Reduced.Offset-orig.Energy) > 1e-9 {
		t.Fatalf("fully-fixed offset %v, want %v", res.Reduced.Offset, orig.Energy)
	}
}

func TestPreprocessNoFalseFixing(t *testing.T) {
	// Balanced antiferromagnetic problem: no variable is fixable.
	q := New(4)
	for i := 0; i < 4; i++ {
		q.SetCoeff(i, i, -1)
		for j := i + 1; j < 4; j++ {
			q.SetCoeff(i, j, 2)
		}
	}
	// Rule 1: d + neg = −1 ≥ 0? No. Rule 2: d + pos = −1 + 6 = 5 ≤ 0? No.
	res := Preprocess(q)
	if res.Simplified {
		t.Fatalf("balanced problem was simplified: %v", res.Fixed)
	}
	if res.Reduced.n != 4 {
		t.Fatal("variables disappeared without fixing")
	}
}

func TestExpandLengthMismatchPanics(t *testing.T) {
	q := New(2)
	res := Preprocess(q)
	defer func() {
		if recover() == nil {
			t.Fatal("bad Expand length did not panic")
		}
	}()
	res.Expand(make([]int8, res.Reduced.n+1))
}
