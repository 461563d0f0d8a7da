package linalg

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func randomMatrix(r *rng.Source, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func matApproxEq(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 5)
	if m.At(0, 1) != 5 || m.At(1, 0) != 0 {
		t.Fatal("At/Set broken")
	}
	c := m.Clone()
	c.Set(0, 1, 7)
	if m.At(0, 1) != 5 {
		t.Fatal("Clone aliases data")
	}
}

func TestTranspose(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.Transpose()
	if mt.Rows != 3 || mt.Cols != 2 || mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Fatal("transpose wrong")
	}
	if !matApproxEq(mt.Transpose(), m, 0) {
		t.Fatal("double transpose != original")
	}
}

func TestMulKnown(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := MatrixFromRows([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := MatrixFromRows([][]float64{{19, 22}, {43, 50}})
	if !matApproxEq(got, want, 1e-12) {
		t.Fatalf("got %v", got.Data)
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestInverseRoundTrip(t *testing.T) {
	r := rng.New(10)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(10)
		m := randomMatrix(r, n, n)
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("random matrix singular: %v", err)
		}
		if !matApproxEq(m.Mul(inv), Identity(n), 1e-8) {
			t.Fatalf("M·M⁻¹ != I (n=%d)", n)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := m.Inverse(); err == nil {
		t.Fatal("singular inverted")
	}
}

func TestCholesky(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(10)
		a := randomMatrix(r, n, n)
		// AᵀA + I is SPD.
		spd := a.Transpose().Mul(a)
		for i := 0; i < n; i++ {
			spd.Set(i, i, spd.At(i, i)+1)
		}
		l, err := spd.Cholesky()
		if err != nil {
			t.Fatal(err)
		}
		if !matApproxEq(l.Mul(l.Transpose()), spd, 1e-8) {
			t.Fatalf("LLᵀ != A (n=%d)", n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatal("L not lower triangular")
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, −1
	if _, err := m.Cholesky(); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestVecHelpers(t *testing.T) {
	if got := VecNormSq([]float64{3, 4}); got != 25 {
		t.Fatalf("VecNormSq = %v", got)
	}
}

func TestMaxAbs(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, -7}, {3, 2}})
	if m.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	if NewMatrix(0, 0).MaxAbs() != 0 {
		t.Fatal("empty MaxAbs != 0")
	}
}

// TestRealDecomposePreservesProduct is the key property the QUBO reduction
// relies on: the real decomposition represents the same linear system, so
// H̃·x̃ equals the stacked real/imag parts of H·x for every x.
func TestRealDecomposePreservesProduct(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 50; trial++ {
		rows := 1 + r.Intn(6)
		cols := 1 + r.Intn(6)
		h := randomCMatrix(r, rows, cols)
		x := make([]complex128, cols)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		y := h.MulVec(x)
		hr, yr := RealDecompose(h, y)
		if hr.Rows != 2*rows || hr.Cols != 2*cols {
			t.Fatalf("real form is %dx%d", hr.Rows, hr.Cols)
		}
		xt := make([]float64, 2*cols)
		for i, v := range x {
			xt[i] = real(v)
			xt[cols+i] = imag(v)
		}
		got := hr.MulVec(xt)
		for i := range got {
			if math.Abs(got[i]-yr[i]) > 1e-9 {
				t.Fatalf("H̃x̃ != ỹ at %d: %v vs %v", i, got[i], yr[i])
			}
		}
	}
}

// TestRealDecomposePreservesNorm: ‖ỹ − H̃x̃‖² = ‖y − Hx‖², so the ML
// objective is unchanged by the decomposition.
func TestRealDecomposePreservesNorm(t *testing.T) {
	r := rng.New(13)
	h := randomCMatrix(r, 4, 4)
	y := make([]complex128, 4)
	x := make([]complex128, 4)
	for i := range y {
		y[i] = complex(r.NormFloat64(), r.NormFloat64())
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	complexObj := CVecNormSq(CVecSub(y, h.MulVec(x)))
	hr, yr := RealDecompose(h, y)
	xt := make([]float64, 8)
	for i, v := range x {
		xt[i] = real(v)
		xt[4+i] = imag(v)
	}
	resid := hr.MulVec(xt)
	for i := range resid {
		resid[i] -= yr[i]
	}
	realObj := VecNormSq(resid)
	if math.Abs(complexObj-realObj) > 1e-9 {
		t.Fatalf("objective changed: %v vs %v", complexObj, realObj)
	}
}

func BenchmarkMul32(b *testing.B) {
	r := rng.New(1)
	m := randomMatrix(r, 32, 32)
	n := randomMatrix(r, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Mul(n)
	}
}

func TestRealFrobeniusNorm(t *testing.T) {
	m := MatrixFromRows([][]float64{{3, 0}, {0, 4}})
	if math.Abs(m.FrobeniusNorm()-5) > 1e-12 {
		t.Fatalf("‖M‖_F = %v", m.FrobeniusNorm())
	}
}
