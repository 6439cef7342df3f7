// Package linalg provides the dense linear-algebra substrate used by the
// machine-learning algorithms in this repository: column-major-free dense
// matrices, vector helpers, and the Cholesky decomposition that solves the
// regularized least-squares systems at the heart of kernel ridge
// regression (Eq. 6 and Eq. 7 of the SmarterYou paper).
//
// Everything is implemented from scratch on float64 slices; there are no
// external dependencies. Matrices are small in this system (the
// authentication feature space is M=28 dimensional, training sets are a few
// hundred windows), so the implementations favour clarity and numerical
// robustness over blocking or SIMD.
package linalg

import (
	"errors"
	"fmt"
	"strings"
)

// ErrDimensionMismatch is returned when operand shapes are incompatible.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// ErrSingular is returned when a factorization encounters a singular (or
// numerically indefinite) matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-valued rows x cols matrix.
// It panics if either dimension is non-positive: matrix shapes in this
// codebase are programmer-controlled, never user input.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Add returns m + other.
func (m *Matrix) Add(other *Matrix) (*Matrix, error) {
	if m.rows != other.rows || m.cols != other.cols {
		return nil, fmt.Errorf("%w: add %dx%d with %dx%d", ErrDimensionMismatch, m.rows, m.cols, other.rows, other.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += other.data[i]
	}
	return out, nil
}

// Sub returns m - other.
func (m *Matrix) Sub(other *Matrix) (*Matrix, error) {
	if m.rows != other.rows || m.cols != other.cols {
		return nil, fmt.Errorf("%w: sub %dx%d with %dx%d", ErrDimensionMismatch, m.rows, m.cols, other.rows, other.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= other.data[i]
	}
	return out, nil
}

// Scale returns s * m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// AddDiagonal returns m + s*I for square m. This is the ridge shift
// (K + rho*I) used throughout kernel ridge regression.
func (m *Matrix) AddDiagonal(s float64) (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("%w: AddDiagonal on %dx%d matrix", ErrDimensionMismatch, m.rows, m.cols)
	}
	out := m.Clone()
	for i := 0; i < m.rows; i++ {
		out.data[i*m.cols+i] += s
	}
	return out, nil
}

// MulVecInto computes m * v into dst, which must have length m.Rows().
// This is the allocation-free form of MulVec for hot paths that reuse a
// buffer (the Sherman-Morrison update applies it twice per sample).
// dst must not alias v.
func (m *Matrix) MulVecInto(dst, v []float64) error {
	if m.cols != len(v) {
		return fmt.Errorf("%w: mulvec %dx%d with vector of length %d", ErrDimensionMismatch, m.rows, m.cols, len(v))
	}
	if len(dst) != m.rows {
		return fmt.Errorf("%w: mulvec destination length %d, want %d", ErrDimensionMismatch, len(dst), m.rows)
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, a := range row {
			s += a * v[j]
		}
		dst[i] = s
	}
	return nil
}

// SubOuterScaled applies m -= scale * u * u^T in place for square m; the
// fused symmetric rank-1 downdate at the heart of Sherman-Morrison. It
// walks the backing array directly instead of going through At/Set, which
// is what keeps the O(M^2) incremental-KRR update cheap in practice.
func (m *Matrix) SubOuterScaled(u []float64, scale float64) error {
	if m.rows != m.cols {
		return fmt.Errorf("%w: SubOuterScaled on %dx%d matrix", ErrDimensionMismatch, m.rows, m.cols)
	}
	if len(u) != m.rows {
		return fmt.Errorf("%w: SubOuterScaled vector length %d, want %d", ErrDimensionMismatch, len(u), m.rows)
	}
	for i, ui := range u {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := scale * ui
		for j, uj := range u {
			row[j] -= s * uj
		}
	}
	return nil
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%9.4f", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
