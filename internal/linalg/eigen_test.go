package linalg

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
)

func TestSymmetricEigenvaluesKnown(t *testing.T) {
	// Diagonal: eigenvalues are the diagonal, sorted.
	d := MatrixFromRows([][]float64{{3, 0, 0}, {0, -1, 0}, {0, 0, 7}})
	eig, err := SymmetricEigenvalues(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{7, 3, -1}
	for i := range want {
		if math.Abs(eig[i]-want[i]) > 1e-10 {
			t.Fatalf("eig = %v", eig)
		}
	}
	// 2x2 [[2,1],[1,2]]: eigenvalues 3 and 1.
	m := MatrixFromRows([][]float64{{2, 1}, {1, 2}})
	eig, err = SymmetricEigenvalues(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-3) > 1e-10 || math.Abs(eig[1]-1) > 1e-10 {
		t.Fatalf("eig = %v", eig)
	}
}

func TestSymmetricEigenvaluesRejectsAsymmetric(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2}, {3, 1}})
	if _, err := SymmetricEigenvalues(m); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
	if _, err := SymmetricEigenvalues(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}

// TestEigenvalueInvariants: trace and Frobenius norm are preserved by the
// spectrum on random symmetric matrices.
func TestEigenvalueInvariants(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(8)
		a := randomMatrix(r, n, n)
		sym := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sym.Set(i, j, (a.At(i, j)+a.At(j, i))/2)
			}
		}
		eig, err := SymmetricEigenvalues(sym)
		if err != nil {
			t.Fatal(err)
		}
		var trace, sumSq float64
		for i := 0; i < n; i++ {
			trace += sym.At(i, i)
		}
		var eigSum, eigSq float64
		for _, v := range eig {
			eigSum += v
			eigSq += v * v
		}
		for _, v := range sym.Data {
			sumSq += v * v
		}
		if math.Abs(trace-eigSum) > 1e-8*(1+math.Abs(trace)) {
			t.Fatalf("trace %v != Σλ %v", trace, eigSum)
		}
		if math.Abs(sumSq-eigSq) > 1e-8*(1+sumSq) {
			t.Fatalf("‖A‖² %v != Σλ² %v", sumSq, eigSq)
		}
	}
}

func TestSingularValuesKnown(t *testing.T) {
	// Unitary-ish matrix: all singular values 1.
	u := CMatrixFromRows([][]complex128{
		{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	})
	sv, err := u.SingularValues()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sv {
		if math.Abs(v-1) > 1e-8 {
			t.Fatalf("unitary singular values %v", sv)
		}
	}
	cn, err := u.ConditionNumber()
	if err != nil || math.Abs(cn-1) > 1e-8 {
		t.Fatalf("unitary condition number %v (%v)", cn, err)
	}
	// Diagonal complex matrix: singular values are the moduli.
	d := NewCMatrix(2, 2)
	d.Set(0, 0, 3i)
	d.Set(1, 1, 4)
	sv, err = d.SingularValues()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sv[0]-4) > 1e-8 || math.Abs(sv[1]-3) > 1e-8 {
		t.Fatalf("diag singular values %v", sv)
	}
}

// TestSingularValuesMatchFrobenius: Σσ² = ‖M‖²_F on random matrices.
func TestSingularValuesMatchFrobenius(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 15; trial++ {
		n := 1 + r.Intn(6)
		m := randomCMatrix(r, n+r.Intn(3), n)
		sv, err := m.SingularValues()
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range sv {
			sum += v * v
		}
		f := m.FrobeniusNorm()
		if math.Abs(sum-f*f) > 1e-7*(1+f*f) {
			t.Fatalf("Σσ² = %v, ‖M‖² = %v", sum, f*f)
		}
	}
}

func TestConditionNumberSingular(t *testing.T) {
	m := CMatrixFromRows([][]complex128{{1, 2}, {2, 4}})
	cn, err := m.ConditionNumber()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(cn, 1) && cn < 1e7 {
		t.Fatalf("singular matrix condition number %v", cn)
	}
}

// TestConditionNumberPhaseInvariant: multiplying by a unit phase leaves
// singular values unchanged.
func TestConditionNumberPhaseInvariant(t *testing.T) {
	r := rng.New(27)
	m := randomCMatrix(r, 4, 4)
	rot := m.Clone()
	for i := range rot.Data {
		rot.Data[i] *= cmplx.Exp(complex(0, 1.2))
	}
	a, err := m.ConditionNumber()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rot.ConditionNumber()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-6*(1+a) {
		t.Fatalf("phase changed condition number: %v vs %v", a, b)
	}
}
