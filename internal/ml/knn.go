package ml

import (
	"fmt"
	"sort"

	"smarteryou/internal/linalg"
)

// KNN is a k-nearest-neighbours binary classifier. It reproduces the
// classifier used by the accelerometer-gait work of Nickel et al. that the
// paper compares against (Table I), and serves as an ablation baseline.
// Score is the signed fraction of neighbour votes in [-1, 1].
type KNN struct {
	// K is the number of neighbours (default 5, made odd to avoid ties).
	K int

	x   [][]float64
	y   []bool
	dim int
}

var _ BinaryClassifier = (*KNN)(nil)

// NewKNN returns a 5-NN classifier.
func NewKNN() *KNN { return &KNN{K: 5} }

// Fit memorizes the training set.
func (k *KNN) Fit(x [][]float64, y []bool) error {
	dim, err := checkTrainingSet(x, y)
	if err != nil {
		return err
	}
	k.x = make([][]float64, len(x))
	for i, row := range x {
		k.x[i] = append([]float64(nil), row...)
	}
	k.y = append([]bool(nil), y...)
	k.dim = dim
	return nil
}

// Score implements BinaryClassifier.
func (k *KNN) Score(x []float64) (float64, error) {
	if k.x == nil {
		return 0, ErrNotFitted
	}
	if len(x) != k.dim {
		return 0, fmt.Errorf("%w: feature length %d, model expects %d", ErrBadTrainingSet, len(x), k.dim)
	}
	kk := k.K
	if kk <= 0 {
		kk = 5
	}
	if kk > len(k.x) {
		kk = len(k.x)
	}
	if kk%2 == 0 {
		kk-- // odd k avoids exact vote ties
		if kk == 0 {
			kk = 1
		}
	}
	type neighbour struct {
		dist float64
		pos  bool
	}
	ns := make([]neighbour, len(k.x))
	for i, row := range k.x {
		d, err := linalg.SquaredDistance(row, x)
		if err != nil {
			return 0, err
		}
		ns[i] = neighbour{dist: d, pos: k.y[i]}
	}
	sort.Slice(ns, func(a, b int) bool { return ns[a].dist < ns[b].dist })
	votes := 0.0
	for i := 0; i < kk; i++ {
		votes += signLabel(ns[i].pos)
	}
	return votes / float64(kk), nil
}
