package ml

import (
	"fmt"
	"math/rand"
)

// SVM is a linear soft-margin support vector machine trained with the
// Pegasos primal stochastic sub-gradient method. It is the strongest
// baseline in the paper's Table VI: accuracy close to KRR but with a
// noticeably more expensive training loop (many passes over the data versus
// KRR's single linear solve) — the trade-off Section V-F2 calls out.
type SVM struct {
	// Lambda is the regularization strength of the Pegasos objective.
	Lambda float64
	// Epochs is the number of full passes over the training data.
	Epochs int
	// Seed makes the stochastic training deterministic.
	Seed int64

	w    []float64
	bias float64
	dim  int
}

var _ BinaryClassifier = (*SVM)(nil)

// NewSVM returns an SVM with defaults that converge reliably on the
// standardized 28-dimensional authentication vectors.
func NewSVM() *SVM {
	return &SVM{Lambda: 1e-3, Epochs: 30, Seed: 1}
}

// Fit trains with Pegasos: at step t, draw one sample, step with learning
// rate 1/(lambda*t) on the hinge sub-gradient, and shrink w.
func (s *SVM) Fit(x [][]float64, y []bool) error {
	dim, err := checkTrainingSet(x, y)
	if err != nil {
		return err
	}
	if s.Lambda <= 0 {
		return fmt.Errorf("%w: lambda must be positive, got %g", ErrBadTrainingSet, s.Lambda)
	}
	epochs := s.Epochs
	if epochs <= 0 {
		epochs = 30
	}
	rng := rand.New(rand.NewSource(s.Seed))
	w := make([]float64, dim)
	bias := 0.0
	// Averaged Pegasos: the average of the second-half iterates converges
	// much faster than the noisy last iterate.
	avgW := make([]float64, dim)
	avgBias := 0.0
	avgCount := 0
	t := 0
	n := len(x)
	totalSteps := epochs * n
	for epoch := 0; epoch < epochs; epoch++ {
		for iter := 0; iter < n; iter++ {
			t++
			i := rng.Intn(n)
			// Offsetting the step count by 1/lambda caps the first steps at
			// eta <= 1, avoiding the huge early iterates of textbook
			// Pegasos that take many epochs to wash out.
			eta := 1 / (s.Lambda * (float64(t) + 1/s.Lambda))
			target := signLabel(y[i])
			margin := bias
			for j, v := range x[i] {
				margin += w[j] * v
			}
			margin *= target
			// Shrink step (the regularizer's gradient).
			scale := 1 - eta*s.Lambda
			if scale < 0 {
				scale = 0
			}
			for j := range w {
				w[j] *= scale
			}
			if margin < 1 {
				// Hinge-loss gradient step.
				for j, v := range x[i] {
					w[j] += eta * target * v
				}
				bias += eta * target
			}
			if t > totalSteps/2 {
				for j := range w {
					avgW[j] += w[j]
				}
				avgBias += bias
				avgCount++
			}
		}
	}
	if avgCount > 0 {
		for j := range avgW {
			avgW[j] /= float64(avgCount)
		}
		avgBias /= float64(avgCount)
		s.w = avgW
		s.bias = avgBias
	} else {
		s.w = w
		s.bias = bias
	}
	s.dim = dim
	return nil
}

// Score implements BinaryClassifier.
func (s *SVM) Score(x []float64) (float64, error) {
	if s.w == nil {
		return 0, ErrNotFitted
	}
	if len(x) != s.dim {
		return 0, fmt.Errorf("%w: feature length %d, model expects %d", ErrBadTrainingSet, len(x), s.dim)
	}
	v := s.bias
	for j, xi := range x {
		v += s.w[j] * xi
	}
	return v, nil
}
