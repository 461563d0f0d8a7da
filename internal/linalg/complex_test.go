package linalg

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
)

func randomCMatrix(r *rng.Source, rows, cols int) *CMatrix {
	m := NewCMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return m
}

func cApproxEq(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func cMatApproxEq(a, b *CMatrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if !cApproxEq(a.Data[i], b.Data[i], tol) {
			return false
		}
	}
	return true
}

func TestCMatrixAtSet(t *testing.T) {
	m := NewCMatrix(2, 3)
	m.Set(1, 2, 3+4i)
	if m.At(1, 2) != 3+4i {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Fatal("zero value not zero")
	}
}

func TestCMatrixFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	CMatrixFromRows([][]complex128{{1, 2}, {3}})
}

func TestCMulIdentity(t *testing.T) {
	r := rng.New(1)
	m := randomCMatrix(r, 4, 4)
	if !cMatApproxEq(m.Mul(CIdentity(4)), m, 1e-12) {
		t.Fatal("M·I != M")
	}
	if !cMatApproxEq(CIdentity(4).Mul(m), m, 1e-12) {
		t.Fatal("I·M != M")
	}
}

func TestCMulKnown(t *testing.T) {
	a := CMatrixFromRows([][]complex128{{1, 2i}, {3, 4}})
	b := CMatrixFromRows([][]complex128{{1i, 0}, {1, 1}})
	got := a.Mul(b)
	want := CMatrixFromRows([][]complex128{{1i + 2i, 2i}, {3i + 4, 4}})
	if !cMatApproxEq(got, want, 1e-12) {
		t.Fatalf("got\n%v want\n%v", got, want)
	}
}

func TestCMulAssociative(t *testing.T) {
	r := rng.New(2)
	a := randomCMatrix(r, 3, 4)
	b := randomCMatrix(r, 4, 5)
	c := randomCMatrix(r, 5, 2)
	left := a.Mul(b).Mul(c)
	right := a.Mul(b.Mul(c))
	if !cMatApproxEq(left, right, 1e-10) {
		t.Fatal("matrix multiplication not associative")
	}
}

func TestCMulVecMatchesMul(t *testing.T) {
	r := rng.New(3)
	a := randomCMatrix(r, 5, 4)
	x := make([]complex128, 4)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	xm := NewCMatrix(4, 1)
	copy(xm.Data, x)
	got := a.MulVec(x)
	want := a.Mul(xm)
	for i := range got {
		if !cApproxEq(got[i], want.At(i, 0), 1e-12) {
			t.Fatalf("MulVec mismatch at %d", i)
		}
	}
}

func TestConjTranspose(t *testing.T) {
	a := CMatrixFromRows([][]complex128{{1 + 2i, 3}, {4i, 5 - 1i}, {0, 2}})
	at := a.ConjTranspose()
	if at.Rows != 2 || at.Cols != 3 {
		t.Fatalf("shape %dx%d", at.Rows, at.Cols)
	}
	if at.At(0, 0) != 1-2i || at.At(1, 1) != 5+1i || at.At(0, 1) != -4i {
		t.Fatal("conjugate transpose wrong")
	}
	// (Aᴴ)ᴴ = A
	if !cMatApproxEq(at.ConjTranspose(), a, 0) {
		t.Fatal("double Hermitian transpose != original")
	}
}

func TestCInverse(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(8)
		m := randomCMatrix(r, n, n)
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("random matrix reported singular: %v", err)
		}
		if !cMatApproxEq(m.Mul(inv), CIdentity(n), 1e-8) {
			t.Fatalf("M·M⁻¹ != I for n=%d", n)
		}
		if !cMatApproxEq(inv.Mul(m), CIdentity(n), 1e-8) {
			t.Fatalf("M⁻¹·M != I for n=%d", n)
		}
	}
}

func TestCInverseSingular(t *testing.T) {
	m := CMatrixFromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := m.Inverse(); err == nil {
		t.Fatal("singular matrix inverted without error")
	}
	if _, err := NewCMatrix(2, 3).Inverse(); err == nil {
		t.Fatal("non-square inverse did not error")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := CMatrixFromRows([][]complex128{{3, 0}, {0, 4i}})
	if math.Abs(m.FrobeniusNorm()-5) > 1e-12 {
		t.Fatalf("‖M‖_F = %v, want 5", m.FrobeniusNorm())
	}
}

func TestCVecHelpers(t *testing.T) {
	a := []complex128{1, 2i}
	b := []complex128{1i, 1}
	d := CVecSub(a, b)
	if d[0] != 1-1i || d[1] != 2i-1 {
		t.Fatalf("CVecSub = %v", d)
	}
	if got := CVecNormSq([]complex128{3, 4i}); math.Abs(got-25) > 1e-12 {
		t.Fatalf("CVecNormSq = %v", got)
	}
}

func TestAddScaleAndIdentityShift(t *testing.T) {
	a := CMatrixFromRows([][]complex128{{1, 2}, {3, 4}})
	sh := a.AddScaledIdentity(10)
	if sh.At(0, 0) != 11 || sh.At(1, 1) != 14 || sh.At(0, 1) != 2 {
		t.Fatal("AddScaledIdentity wrong")
	}
}

func BenchmarkCMul16(b *testing.B) {
	r := rng.New(1)
	m := randomCMatrix(r, 16, 16)
	n := randomCMatrix(r, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Mul(n)
	}
}

func BenchmarkCInverse16(b *testing.B) {
	r := rng.New(1)
	m := randomCMatrix(r, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Inverse(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCMatrixString(t *testing.T) {
	m := CMatrixFromRows([][]complex128{{1 + 2i, 0}, {3, -4i}})
	s := m.String()
	if len(s) == 0 || s[len(s)-1] != '\n' {
		t.Fatal("render malformed")
	}
}
