// Package ml implements, from scratch, every machine-learning algorithm the
// SmarterYou paper evaluates or depends on:
//
//   - Kernel ridge regression (KRR) — the paper's chosen authentication
//     classifier (Section V-F2), with both the dual solve of Eq. 6 and the
//     primal solve of Eq. 7, and the identity/RBF kernels.
//   - A linear soft-margin SVM trained with the Pegasos stochastic
//     sub-gradient method — the strongest baseline in Table VI.
//   - Regularized linear (ridge) regression and Gaussian naive Bayes — the
//     weaker baselines in Table VI.
//   - CART decision trees and Random Forests — the context-detection
//     classifier (Section V-E).
//   - k-nearest neighbours — the classifier used by the related gait work
//     the paper compares against (Nickel et al.), used here in ablations.
//
// Go has no canonical ML library, so everything is implemented directly on
// the linalg substrate with deterministic, seedable training.
package ml

import (
	"errors"
	"fmt"
)

// ErrNotFitted is returned when prediction is attempted before training.
var ErrNotFitted = errors.New("ml: model has not been fitted")

// ErrBadTrainingSet is returned for empty or inconsistent training inputs.
var ErrBadTrainingSet = errors.New("ml: bad training set")

// BinaryClassifier is a two-class classifier with a real-valued decision
// function. By convention, Score > 0 predicts the positive class
// ("legitimate user" in the authentication setting) and the magnitude of
// Score is the confidence — exactly the paper's Confidence Score
// CS(k) = x_k^T w* when the model is KRR.
type BinaryClassifier interface {
	// Fit trains on feature rows x with labels y (true = positive class).
	Fit(x [][]float64, y []bool) error
	// Score returns the decision value for one feature vector.
	Score(x []float64) (float64, error)
}

// MultiClassifier assigns one of a set of string labels to a feature
// vector. The context-detection Random Forest implements this.
type MultiClassifier interface {
	FitClasses(x [][]float64, labels []string) error
	PredictClass(x []float64) (string, error)
}

// checkTrainingSet validates the common preconditions of Fit
// implementations: non-empty, rectangular, with matching label count and
// both classes present.
func checkTrainingSet(x [][]float64, y []bool) (dim int, err error) {
	if len(x) == 0 {
		return 0, fmt.Errorf("%w: no samples", ErrBadTrainingSet)
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: %d samples but %d labels", ErrBadTrainingSet, len(x), len(y))
	}
	dim = len(x[0])
	if dim == 0 {
		return 0, fmt.Errorf("%w: zero-dimensional features", ErrBadTrainingSet)
	}
	for i, row := range x {
		if len(row) != dim {
			return 0, fmt.Errorf("%w: sample %d has %d features, want %d", ErrBadTrainingSet, i, len(row), dim)
		}
	}
	var pos, neg bool
	for _, label := range y {
		if label {
			pos = true
		} else {
			neg = true
		}
	}
	if !pos || !neg {
		return 0, fmt.Errorf("%w: training set must contain both classes", ErrBadTrainingSet)
	}
	return dim, nil
}

// signLabel maps a boolean label to the +1/-1 regression target used by
// KRR, SVM and linear regression.
func signLabel(b bool) float64 {
	if b {
		return 1
	}
	return -1
}
