// Package linalg provides dense matrix and vector primitives used by the
// KeyBin2 pipeline: random projection application, Gram–Schmidt
// orthonormalization, and parallel matrix multiplication.
//
// The package is deliberately small and allocation-conscious. Matrices are
// stored in row-major order in a single backing slice so that projecting a
// block of points is a cache-friendly streaming pass.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned (wrapped) when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible shapes")

// Matrix is a dense, row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows. The rows are
// copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrShape, i, len(row), c)
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// SetCol overwrites column j with v.
func (m *Matrix) SetCol(j int, v []float64) {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("linalg: SetCol len %d != rows %d", len(v), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = v[i]
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		ri := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range ri {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// Equal reports whether a and b have the same shape and elements within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Mul computes a×b and stores it in dst (allocating when dst is nil).
// a is r×k, b is k×c, dst is r×c. It returns dst.
func Mul(dst, a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: %dx%d × %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if dst == nil {
		dst = NewMatrix(a.Rows, b.Cols)
	} else if dst.Rows != a.Rows || dst.Cols != b.Cols {
		return nil, fmt.Errorf("%w: dst %dx%d, want %dx%d", ErrShape, dst.Rows, dst.Cols, a.Rows, b.Cols)
	}
	mulRangeWith(best, dst, a, b, 0, a.Rows)
	return dst, nil
}

// mulRangeGeneric computes rows [lo,hi) of dst = a×b using an ikj loop order
// that streams over b's rows, which is cache-friendly for row-major storage.
// It is the portable form of mulRangeWith and the arithmetic contract the amd64
// kernels reproduce bit for bit: per k pair di[j] += (a0·b0[j]) + (a1·b1[j]),
// each product and sum rounded separately, then the odd k alone. The
// float64 conversions round each product as the Go spec defines, so no
// compiler may fuse it into a multiply-add (arm64's would, and project other
// bits than every amd64 kernel).
func mulRangeGeneric(dst, a, b *Matrix, lo, hi int) {
	n, c := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		di := dst.Data[i*c : (i+1)*c]
		for x := range di {
			di[x] = 0
		}
		ai := a.Data[i*n : (i+1)*n]
		k := 0
		for ; k+1 < n; k += 2 {
			a0, a1 := ai[k], ai[k+1]
			if a0 == 0 && a1 == 0 {
				continue
			}
			b0 := b.Data[k*c : (k+1)*c]
			b1 := b.Data[(k+1)*c : (k+2)*c : (k+2)*c]
			for j, bv := range b0 {
				di[j] += float64(a0*bv) + float64(a1*b1[j])
			}
		}
		for ; k < n; k++ {
			aik := ai[k]
			if aik == 0 {
				continue
			}
			bk := b.Data[k*c : (k+1)*c]
			for j, bv := range bk {
				di[j] += float64(aik * bv)
			}
		}
	}
}

// Scale multiplies every element of m by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var ss float64
	for _, v := range m.Data {
		ss += float64(v * v)
	}
	return math.Sqrt(ss)
}

// String renders small matrices for debugging; large matrices are elided.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
