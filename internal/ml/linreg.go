package ml

import (
	"fmt"

	"smarteryou/internal/linalg"
)

// LinearRegression classifies by least-squares regression onto +1/-1
// targets with an intercept — one of the two weak baselines in Table VI.
// A tiny ridge term keeps the normal equations well-posed when features are
// collinear; unlike KRR it is fixed and not treated as a tuning parameter.
type LinearRegression struct {
	w   []float64 // last element is the intercept
	dim int
}

var _ BinaryClassifier = (*LinearRegression)(nil)

// NewLinearRegression returns an untrained linear-regression classifier.
func NewLinearRegression() *LinearRegression { return &LinearRegression{} }

// Fit solves the normal equations (A^T A + eps*I) w = A^T y where A is the
// design matrix with a trailing column of ones.
func (l *LinearRegression) Fit(x [][]float64, y []bool) error {
	dim, err := checkTrainingSet(x, y)
	if err != nil {
		return err
	}
	aug := dim + 1
	ata := linalg.NewMatrix(aug, aug)
	aty := make([]float64, aug)
	row := make([]float64, aug)
	for i, sample := range x {
		copy(row, sample)
		row[dim] = 1
		target := signLabel(y[i])
		for a := 0; a < aug; a++ {
			aty[a] += row[a] * target
			for b := a; b < aug; b++ {
				ata.Set(a, b, ata.At(a, b)+row[a]*row[b])
			}
		}
	}
	for a := 0; a < aug; a++ {
		for b := 0; b < a; b++ {
			ata.Set(a, b, ata.At(b, a))
		}
	}
	shifted, err := ata.AddDiagonal(1e-8)
	if err != nil {
		return fmt.Errorf("ml: linreg: %w", err)
	}
	w, err := linalg.SolveSPD(shifted, aty)
	if err != nil {
		return fmt.Errorf("ml: linreg solve: %w", err)
	}
	l.w = w
	l.dim = dim
	return nil
}

// Score implements BinaryClassifier.
func (l *LinearRegression) Score(x []float64) (float64, error) {
	if l.w == nil {
		return 0, ErrNotFitted
	}
	if len(x) != l.dim {
		return 0, fmt.Errorf("%w: feature length %d, model expects %d", ErrBadTrainingSet, len(x), l.dim)
	}
	v := l.w[l.dim] // intercept
	for j, xi := range x {
		v += l.w[j] * xi
	}
	return v, nil
}
