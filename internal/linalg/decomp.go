package linalg

import (
	"fmt"
	"math"
)

// Cholesky computes the lower-triangular factor L of a symmetric
// positive-definite matrix a, such that a = L * L^T. It returns ErrSingular
// if the matrix is not positive definite (within numerical tolerance).
//
// The ridge-shifted Gram matrices solved in kernel ridge regression
// (K + rho*I and S + rho*I) are symmetric positive definite by construction
// for rho > 0, so Cholesky is the natural and cheapest solver for them.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Cholesky of %dx%d matrix", ErrDimensionMismatch, a.rows, a.cols)
	}
	n := a.rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, fmt.Errorf("%w: non-positive pivot %g at row %d", ErrSingular, s, i)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// CholeskySolve solves a*x = b given the Cholesky factor l of a, via
// forward then backward substitution.
func CholeskySolve(l *Matrix, b []float64) ([]float64, error) {
	n := l.rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: solve with factor %dx%d and rhs length %d", ErrDimensionMismatch, n, n, len(b))
	}
	// Forward: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Backward: L^T x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// SolveSPD solves a*x = b for symmetric positive-definite a.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return CholeskySolve(l, b)
}
