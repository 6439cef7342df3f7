package linalg

import "fmt"

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: dot of lengths %d and %d", ErrDimensionMismatch, len(a), len(b))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s, nil
}

// SquaredDistance returns ||a-b||^2, the workhorse of the RBF kernel and
// k-NN distance computations.
func SquaredDistance(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: distance of lengths %d and %d", ErrDimensionMismatch, len(a), len(b))
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s, nil
}
