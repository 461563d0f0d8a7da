package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major real matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[r*Cols+c]
}

// NewMatrix returns a zeroed rows×cols real matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from row slices, which must be rectangular.
func MatrixFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[r*m.Cols:(r+1)*m.Cols], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Transpose returns Mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*out.Cols+r] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

// Mul returns m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
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

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		var sum float64
		for c, v := range row {
			sum += v * x[c]
		}
		out[r] = sum
	}
	return out
}

// Inverse returns m⁻¹ via Gauss-Jordan with partial pivoting.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: inverse of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if mag := math.Abs(a.At(r, col)); mag > best {
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
		invP := 1 / a.At(col, col)
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

func (m *Matrix) swapRows(i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Cholesky returns the lower-triangular L with m = L·Lᵀ for a symmetric
// positive-definite matrix, or an error if m is not SPD to working
// precision.
func (m *Matrix) Cholesky() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: Cholesky of non-square matrix")
	}
	n := m.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("linalg: matrix not positive definite at %d (pivot %g)", i, sum)
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// FrobeniusNorm returns ‖m‖_F.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns max_ij |m_ij|, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var best float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// VecNormSq returns ‖x‖².
func VecNormSq(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

// RealDecompose maps a complex MIMO system y = H·x into its standard real
// form ỹ = H̃·x̃ with
//
//	ỹ = [Re y; Im y],  H̃ = [Re H  −Im H; Im H  Re H],  x̃ = [Re x; Im x].
//
// This is the first step of the ML-to-QUBO reduction: after it, every
// unknown is a real amplitude drawn from the per-dimension PAM alphabet.
func RealDecompose(h *CMatrix, y []complex128) (hr *Matrix, yr []float64) {
	rows, cols := h.Rows, h.Cols
	hr = NewMatrix(2*rows, 2*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := h.At(r, c)
			hr.Set(r, c, real(v))
			hr.Set(r, cols+c, -imag(v))
			hr.Set(rows+r, c, imag(v))
			hr.Set(rows+r, cols+c, real(v))
		}
	}
	yr = make([]float64, 2*len(y))
	for i, v := range y {
		yr[i] = real(v)
		yr[len(y)+i] = imag(v)
	}
	return hr, yr
}
