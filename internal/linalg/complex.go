// Package linalg implements the dense real and complex linear algebra used
// by the MIMO detectors and the ML-to-QUBO reduction.
//
// The package is deliberately small and allocation-conscious rather than
// general: matrices are dense row-major float64/complex128 buffers, and the
// factorizations provided (Gaussian elimination, Cholesky, Jacobi
// eigenvalues) are exactly the ones the detectors need. Everything is
// stdlib-only.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// CMatrix is a dense row-major complex matrix.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128 // len Rows*Cols, Data[r*Cols+c]
}

// NewCMatrix returns a zeroed rows×cols complex matrix.
func NewCMatrix(rows, cols int) *CMatrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &CMatrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// CMatrixFromRows builds a matrix from row slices, which must be rectangular.
func CMatrixFromRows(rows [][]complex128) *CMatrix {
	if len(rows) == 0 {
		return NewCMatrix(0, 0)
	}
	m := NewCMatrix(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[r*m.Cols:(r+1)*m.Cols], row)
	}
	return m
}

// CIdentity returns the n×n complex identity.
func CIdentity(n int) *CMatrix {
	m := NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (r, c).
func (m *CMatrix) At(r, c int) complex128 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *CMatrix) Set(r, c int, v complex128) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *CMatrix) Clone() *CMatrix {
	out := NewCMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// ConjTranspose returns the Hermitian transpose Mᴴ.
func (m *CMatrix) ConjTranspose() *CMatrix {
	out := NewCMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*out.Cols+r] = cmplx.Conj(m.Data[r*m.Cols+c])
		}
	}
	return out
}

// Mul returns m·b.
func (m *CMatrix) Mul(b *CMatrix) *CMatrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewCMatrix(m.Rows, b.Cols)
	for r := 0; r < m.Rows; r++ {
		mrow := m.Data[r*m.Cols : (r+1)*m.Cols]
		orow := out.Data[r*out.Cols : (r+1)*out.Cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for c, bv := range brow {
				orow[c] += mv * bv
			}
		}
	}
	return out
}

// MulVec returns m·x for a column vector x.
func (m *CMatrix) MulVec(x []complex128) []complex128 {
	if m.Cols != len(x) {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]complex128, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		var sum complex128
		for c, v := range row {
			sum += v * x[c]
		}
		out[r] = sum
	}
	return out
}

// AddScaledIdentity returns m + a·I for square m.
func (m *CMatrix) AddScaledIdentity(a complex128) *CMatrix {
	if m.Rows != m.Cols {
		panic("linalg: AddScaledIdentity on non-square matrix")
	}
	out := m.Clone()
	for i := 0; i < m.Rows; i++ {
		out.Data[i*m.Cols+i] += a
	}
	return out
}

// Inverse returns m⁻¹ via Gauss-Jordan elimination with partial pivoting.
// It reports an error when the matrix is singular to working precision.
func (m *CMatrix) Inverse() (*CMatrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: inverse of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := CIdentity(n)
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at or below col.
		pivot := col
		best := cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if mag := cmplx.Abs(a.At(r, col)); mag > best {
				best, pivot = mag, r
			}
		}
		if best < 1e-300 {
			return nil, fmt.Errorf("linalg: singular matrix (pivot %d)", col)
		}
		if pivot != col {
			a.swapRows(pivot, col)
			inv.swapRows(pivot, col)
		}
		p := a.At(col, col)
		invP := 1 / p
		for c := 0; c < n; c++ {
			a.Data[col*n+c] *= invP
			inv.Data[col*n+c] *= invP
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for c := 0; c < n; c++ {
				a.Data[r*n+c] -= f * a.Data[col*n+c]
				inv.Data[r*n+c] -= f * inv.Data[col*n+c]
			}
		}
	}
	return inv, nil
}

func (m *CMatrix) swapRows(i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// FrobeniusNorm returns ‖m‖_F.
func (m *CMatrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// String renders the matrix for debugging.
func (m *CMatrix) String() string {
	var b strings.Builder
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%6.3f%+6.3fi", real(m.At(r, c)), imag(m.At(r, c)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CVecSub returns a−b elementwise.
func CVecSub(a, b []complex128) []complex128 {
	if len(a) != len(b) {
		panic("linalg: CVecSub length mismatch")
	}
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// CVecNormSq returns ‖x‖² = Σ|x_i|².
func CVecNormSq(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}
