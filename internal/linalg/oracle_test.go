package linalg

import (
	"fmt"
	"math"
)

// The matrix operations and the LU solver below are test oracles: the
// product code solves its ridge systems with Cholesky (SolveSPD) and
// applies MulVecInto and SubOuterScaled in place. The tests build
// fixtures with these, check Cholesky's factor by multiplying it back, and
// compare SolveSPD against the general LU solve.

// Equal reports whether m and other have the same shape and all elements
// within tol of each other.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-other.data[i]) > tol {
			return false
		}
	}
	return true
}

// NewMatrixFromRows builds a matrix from a slice of equal-length rows,
// copying the data.
func NewMatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("%w: empty row set", ErrDimensionMismatch)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrDimensionMismatch, i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m, nil
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m * other.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.cols != other.rows {
		return nil, fmt.Errorf("%w: mul %dx%d with %dx%d", ErrDimensionMismatch, m.rows, m.cols, other.rows, other.cols)
	}
	out := NewMatrix(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			orow := other.data[k*other.cols:]
			crow := out.data[i*out.cols:]
			for j := 0; j < other.cols; j++ {
				crow[j] += a * orow[j]
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m * v through MulVecInto.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	out := make([]float64, m.rows)
	if err := m.MulVecInto(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// Gram returns m^T * m (the Gram matrix of the columns of m), exploiting
// symmetry to halve the work.
func (m *Matrix) Gram() *Matrix {
	out := NewMatrix(m.cols, m.cols)
	for i := 0; i < m.cols; i++ {
		for j := i; j < m.cols; j++ {
			s := 0.0
			for k := 0; k < m.rows; k++ {
				s += m.data[k*m.cols+i] * m.data[k*m.cols+j]
			}
			out.data[i*out.cols+j] = s
			out.data[j*out.cols+i] = s
		}
	}
	return out
}

// luFactor holds an LU factorization with partial pivoting: P*A = L*U
// packed into a single matrix (unit lower triangle implicit).
type luFactor struct {
	lu   *Matrix
	piv  []int
	sign float64
}

// lu computes the LU factorization of a square matrix with partial
// pivoting (Doolittle with row swaps).
func lu(a *Matrix) (*luFactor, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: LU of %dx%d matrix", ErrDimensionMismatch, a.rows, a.cols)
	}
	n := a.rows
	f := &luFactor{lu: a.Clone(), piv: make([]int, n), sign: 1}
	for i := range f.piv {
		f.piv[i] = i
	}
	m := f.lu
	for k := 0; k < n; k++ {
		// Pivot: largest absolute value in column k at or below the diagonal.
		p, max := k, math.Abs(m.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(m.At(i, k)); a > max {
				p, max = i, a
			}
		}
		if max < 1e-14 {
			return nil, fmt.Errorf("%w: pivot %g at column %d", ErrSingular, max, k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				m.data[k*n+j], m.data[p*n+j] = m.data[p*n+j], m.data[k*n+j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		inv := 1 / m.At(k, k)
		for i := k + 1; i < n; i++ {
			lik := m.At(i, k) * inv
			m.Set(i, k, lik)
			if lik == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				m.Set(i, j, m.At(i, j)-lik*m.At(k, j))
			}
		}
	}
	return f, nil
}

func (f *luFactor) solve(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: LU solve with rhs length %d, want %d", ErrDimensionMismatch, len(b), n)
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with implicit unit diagonal.
	for i := 1; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= f.lu.At(i, k) * x[k]
		}
		x[i] = s
	}
	// Backward substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= f.lu.At(i, k) * x[k]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x, nil
}

// Solve solves the general linear system a*x = b via LU with partial
// pivoting.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := lu(a)
	if err != nil {
		return nil, err
	}
	return f.solve(b)
}

// Inverse returns a^{-1} via LU factorization, solving against each column
// of the identity.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := lu(a)
	if err != nil {
		return nil, err
	}
	n := a.rows
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := f.solve(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// Det returns the determinant of a square matrix via LU.
func Det(a *Matrix) (float64, error) {
	f, err := lu(a)
	if err != nil {
		return 0, err
	}
	d := f.sign
	for i := 0; i < a.rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d, nil
}
