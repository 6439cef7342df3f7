package ml

import (
	"fmt"

	"smarteryou/internal/linalg"
)

// IncrementalKRR is an identity-kernel KRR model that supports O(M^2)
// online updates: adding a new window and — the "machine unlearning" of
// Cao & Yang (S&P 2015) that Section V-I cites as the faster alternative
// to retraining from scratch — removing an old one.
//
// The primal solution w* = (S + rho*I)^{-1} X y (Eq. 7) depends on the
// data only through S = sum x_i x_i^T and b = sum y_i x_i. Both admit
// exact rank-1 updates, and the inverse of the ridge-shifted S is
// maintained directly with the Sherman-Morrison identity:
//
//	(A ± x x^T)^{-1} = A^{-1} ∓ (A^{-1} x)(x^T A^{-1}) / (1 ± x^T A^{-1} x)
//
// so both AddSample and RemoveSample cost O(M^2) instead of the O(M^3)
// of a fresh solve — and crucially, removal needs no access to the other
// training samples.
type IncrementalKRR struct {
	rho float64
	dim int
	n   int
	inv *linalg.Matrix // (S + rho*I)^{-1}
	b   []float64      // X y
	w   []float64      // current weights, inv * b (valid iff !wStale)
	u   []float64      // scratch for the Sherman-Morrison vector A^{-1} x
	// wStale defers the O(M^2) weight solve until Score needs the
	// weights: a refresh that streams hundreds of AddSamples before its
	// first Score pays for one solve, not one per sample — a third of
	// the per-sample flops.
	wStale bool
}

var _ BinaryClassifier = (*IncrementalKRR)(nil)

// NewIncrementalKRR returns an empty model for dim-dimensional features.
// With no data, S = 0 and the inverse is (1/rho) I.
func NewIncrementalKRR(rho float64, dim int) (*IncrementalKRR, error) {
	if rho <= 0 {
		return nil, fmt.Errorf("%w: rho must be positive, got %g", ErrBadTrainingSet, rho)
	}
	if dim <= 0 {
		return nil, fmt.Errorf("%w: dimension must be positive, got %d", ErrBadTrainingSet, dim)
	}
	k := &IncrementalKRR{
		rho: rho,
		dim: dim,
		inv: linalg.Identity(dim).Scale(1 / rho),
		b:   make([]float64, dim),
		w:   make([]float64, dim),
		u:   make([]float64, dim),
	}
	return k, nil
}

// Fit implements BinaryClassifier by resetting the model and adding every
// sample; the result is numerically equivalent to the batch primal solve.
func (k *IncrementalKRR) Fit(x [][]float64, y []bool) error {
	dim, err := checkTrainingSet(x, y)
	if err != nil {
		return err
	}
	if dim != k.dim {
		return fmt.Errorf("%w: feature dimension %d, model expects %d", ErrBadTrainingSet, dim, k.dim)
	}
	fresh, err := NewIncrementalKRR(k.rho, k.dim)
	if err != nil {
		return err
	}
	*k = *fresh
	for i, row := range x {
		if err := k.AddSample(row, y[i]); err != nil {
			return err
		}
	}
	return nil
}

// AddSample folds one labelled window into the model.
func (k *IncrementalKRR) AddSample(x []float64, label bool) error {
	if len(x) != k.dim {
		return fmt.Errorf("%w: feature length %d, model expects %d", ErrBadTrainingSet, len(x), k.dim)
	}
	if err := k.rankOneUpdate(x, +1); err != nil {
		return err
	}
	target := signLabel(label)
	for j, v := range x {
		k.b[j] += target * v
	}
	k.n++
	k.wStale = true
	return nil
}

// RemoveSample unlearns one previously added window. The caller must pass
// the same vector and label that were added; the model cannot verify
// membership, only numerical feasibility.
func (k *IncrementalKRR) RemoveSample(x []float64, label bool) error {
	if len(x) != k.dim {
		return fmt.Errorf("%w: feature length %d, model expects %d", ErrBadTrainingSet, len(x), k.dim)
	}
	if k.n == 0 {
		return fmt.Errorf("%w: cannot remove from an empty model", ErrBadTrainingSet)
	}
	if err := k.rankOneUpdate(x, -1); err != nil {
		return err
	}
	target := signLabel(label)
	for j, v := range x {
		k.b[j] -= target * v
	}
	k.n--
	k.wStale = true
	return nil
}

// rankOneUpdate applies Sherman-Morrison for S <- S + sign * x x^T.
func (k *IncrementalKRR) rankOneUpdate(x []float64, sign float64) error {
	// u = A^{-1} x, into the reusable scratch vector.
	if err := k.inv.MulVecInto(k.u, x); err != nil {
		return err
	}
	xu, err := linalg.Dot(x, k.u)
	if err != nil {
		return err
	}
	denom := 1 + sign*xu
	if denom <= 1e-12 {
		// Removing a vector that was never added (or numerical collapse):
		// the downdate would make the matrix indefinite.
		return fmt.Errorf("%w: rank-one downdate is infeasible (denominator %g)", ErrBadTrainingSet, denom)
	}
	return k.inv.SubOuterScaled(k.u, sign/denom)
}

// refreshWeights recomputes w = (S + rho I)^{-1} b in O(M^2) if any
// update landed since the last weight-consuming call.
func (k *IncrementalKRR) refreshWeights() {
	if !k.wStale {
		return
	}
	if err := k.inv.MulVecInto(k.w, k.b); err != nil {
		return // cannot happen: shapes are fixed at construction
	}
	k.wStale = false
}

// Score implements BinaryClassifier.
func (k *IncrementalKRR) Score(x []float64) (float64, error) {
	if k.n == 0 {
		return 0, ErrNotFitted
	}
	if len(x) != k.dim {
		return 0, fmt.Errorf("%w: feature length %d, model expects %d", ErrBadTrainingSet, len(x), k.dim)
	}
	k.refreshWeights()
	return linalg.Dot(k.w, x)
}

// N returns the number of samples currently in the model.
func (k *IncrementalKRR) N() int { return k.n }
