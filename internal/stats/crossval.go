package stats

import (
	"fmt"
	"math/rand"
)

// Fold is one train/test split of a k-fold cross-validation: the index sets
// refer to positions in the caller's dataset.
type Fold struct {
	TrainIdx []int
	TestIdx  []int
}

// KFold produces k shuffled folds over n samples, matching the paper's
// 10-fold cross-validation protocol (Section V-A): each sample appears in
// the test set of exactly one fold. The rng makes splits reproducible.
func KFold(n, k int, rng *rand.Rand) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("stats: k-fold needs k >= 2, got %d", k)
	}
	if n < k {
		return nil, fmt.Errorf("%w: %d samples for %d folds", ErrInsufficientData, n, k)
	}
	perm := rng.Perm(n)
	folds := make([]Fold, k)
	for f := 0; f < k; f++ {
		// Fold f takes every k-th element of the permutation, which keeps
		// fold sizes balanced within one sample of each other.
		var test []int
		for i := f; i < n; i += k {
			test = append(test, perm[i])
		}
		inTest := make(map[int]bool, len(test))
		for _, i := range test {
			inTest[i] = true
		}
		train := make([]int, 0, n-len(test))
		for i := 0; i < n; i++ {
			if !inTest[i] {
				train = append(train, i)
			}
		}
		folds[f] = Fold{TrainIdx: train, TestIdx: test}
	}
	return folds, nil
}

// StratifiedKFold produces k folds preserving the label balance of the
// binary labels y (true = positive class). This matters for the
// authentication datasets, where the legitimate user's windows are
// outnumbered by the impostor population's.
func StratifiedKFold(y []bool, k int, rng *rand.Rand) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("stats: k-fold needs k >= 2, got %d", k)
	}
	var pos, neg []int
	for i, label := range y {
		if label {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	if len(pos) < k || len(neg) < k {
		return nil, fmt.Errorf("%w: %d positive / %d negative samples for %d folds",
			ErrInsufficientData, len(pos), len(neg), k)
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })

	testSets := make([][]int, k)
	for i, idx := range pos {
		f := i % k
		testSets[f] = append(testSets[f], idx)
	}
	for i, idx := range neg {
		f := i % k
		testSets[f] = append(testSets[f], idx)
	}
	folds := make([]Fold, k)
	for f := 0; f < k; f++ {
		inTest := make(map[int]bool, len(testSets[f]))
		for _, i := range testSets[f] {
			inTest[i] = true
		}
		train := make([]int, 0, len(y)-len(testSets[f]))
		for i := range y {
			if !inTest[i] {
				train = append(train, i)
			}
		}
		folds[f] = Fold{TrainIdx: train, TestIdx: testSets[f]}
	}
	return folds, nil
}
