package ml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// RandomForest is a bagged ensemble of CART trees with per-split feature
// subsampling — the classifier Section V-E1 selects for user-agnostic
// context detection.
type RandomForest struct {
	// Trees is the ensemble size (default 30).
	Trees int
	// MaxDepth bounds each tree (default 12).
	MaxDepth int
	// MinLeaf is each tree's minimum leaf size (default 2).
	MinLeaf int
	// FeatureSubset is the per-split feature sample size; 0 means
	// sqrt(nFeatures), the standard forest heuristic.
	FeatureSubset int
	// Seed makes bootstrap sampling deterministic.
	Seed int64

	trees  []*DecisionTree
	labels []string
	nDim   int
}

var _ MultiClassifier = (*RandomForest)(nil)

// NewRandomForest returns a forest configured for the 14-dimensional
// context feature vectors.
func NewRandomForest() *RandomForest {
	return &RandomForest{Trees: 30, MaxDepth: 12, MinLeaf: 2, Seed: 1}
}

// FitClasses implements MultiClassifier: each tree is trained on a
// bootstrap resample of the data with feature subsampling at every split.
func (rf *RandomForest) FitClasses(x [][]float64, labels []string) error {
	if len(x) == 0 {
		return fmt.Errorf("%w: no samples", ErrBadTrainingSet)
	}
	if len(x) != len(labels) {
		return fmt.Errorf("%w: %d samples but %d labels", ErrBadTrainingSet, len(x), len(labels))
	}
	nTrees := rf.Trees
	if nTrees <= 0 {
		nTrees = 30
	}
	rf.nDim = len(x[0])
	subset := rf.FeatureSubset
	if subset <= 0 {
		subset = int(math.Sqrt(float64(rf.nDim)))
		if subset < 1 {
			subset = 1
		}
	}
	set := map[string]struct{}{}
	for _, l := range labels {
		set[l] = struct{}{}
	}
	rf.labels = rf.labels[:0]
	for l := range set {
		rf.labels = append(rf.labels, l)
	}
	sort.Strings(rf.labels)

	rng := rand.New(rand.NewSource(rf.Seed))
	rf.trees = make([]*DecisionTree, nTrees)
	n := len(x)
	bootX := make([][]float64, n)
	bootY := make([]string, n)
	for ti := 0; ti < nTrees; ti++ {
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bootX[i] = x[j]
			bootY[i] = labels[j]
		}
		tree := &DecisionTree{
			MaxDepth:      rf.MaxDepth,
			MinLeaf:       rf.MinLeaf,
			FeatureSubset: subset,
			Seed:          rng.Int63(),
		}
		if err := tree.FitClasses(bootX, bootY); err != nil {
			return fmt.Errorf("ml: forest tree %d: %w", ti, err)
		}
		rf.trees[ti] = tree
	}
	return nil
}

// PredictClass returns the majority vote of the ensemble, breaking ties on
// sorted label order for determinism.
func (rf *RandomForest) PredictClass(x []float64) (string, error) {
	label, _, err := rf.Vote(x)
	return label, err
}

// Vote returns the ensemble's majority label — the first of the sorted
// labels with the most votes — and its share of the votes, which the
// context detector exposes as a detection confidence. Votes are counted
// by label index, on the stack for up to eight labels.
func (rf *RandomForest) Vote(x []float64) (string, float64, error) {
	if len(rf.trees) == 0 || len(rf.labels) == 0 {
		return "", 0, ErrNotFitted
	}
	if len(x) != rf.nDim {
		return "", 0, fmt.Errorf("%w: feature length %d, model expects %d", ErrBadTrainingSet, len(x), rf.nDim)
	}
	var buf [8]int
	var votes []int
	if len(rf.labels) <= len(buf) {
		votes = buf[:len(rf.labels)]
	} else {
		votes = make([]int, len(rf.labels))
	}
	for _, tree := range rf.trees {
		label, err := tree.PredictClass(x)
		if err != nil {
			return "", 0, err
		}
		if i := slices.Index(rf.labels, label); i >= 0 {
			votes[i]++
		}
	}
	best, total := 0, 0
	for i, v := range votes {
		total += v
		if v > votes[best] {
			best = i
		}
	}
	if total == 0 {
		return rf.labels[best], 0, nil
	}
	return rf.labels[best], float64(votes[best]) / float64(total), nil
}
