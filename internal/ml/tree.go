package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// DecisionTree is a CART classification tree with Gini impurity splits,
// supporting arbitrary string class labels. It is the base learner of the
// Random Forest used for context detection (Section V-E1).
type DecisionTree struct {
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (default 1).
	MinLeaf int
	// FeatureSubset, when > 0, restricts each split to that many features
	// sampled at random — the decorrelation mechanism of random forests.
	FeatureSubset int
	// Seed drives feature subsampling.
	Seed int64

	root   *treeNode
	nDim   int
	labels []string
}

type treeNode struct {
	// Leaf prediction (when feature < 0) or split definition.
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	label     string
}

var _ MultiClassifier = (*DecisionTree)(nil)

// NewDecisionTree returns a tree with sensible defaults for the
// context-detection feature vectors.
func NewDecisionTree() *DecisionTree {
	return &DecisionTree{MaxDepth: 12, MinLeaf: 2}
}

// FitClasses implements MultiClassifier.
func (t *DecisionTree) FitClasses(x [][]float64, labels []string) error {
	if len(x) == 0 {
		return fmt.Errorf("%w: no samples", ErrBadTrainingSet)
	}
	if len(x) != len(labels) {
		return fmt.Errorf("%w: %d samples but %d labels", ErrBadTrainingSet, len(x), len(labels))
	}
	t.nDim = len(x[0])
	for i, row := range x {
		if len(row) != t.nDim {
			return fmt.Errorf("%w: sample %d has %d features, want %d", ErrBadTrainingSet, i, len(row), t.nDim)
		}
	}
	set := map[string]struct{}{}
	for _, l := range labels {
		set[l] = struct{}{}
	}
	t.labels = make([]string, 0, len(set))
	for l := range set {
		t.labels = append(t.labels, l)
	}
	sort.Strings(t.labels)

	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	minLeaf := t.MinLeaf
	if minLeaf < 1 {
		minLeaf = 1
	}
	rng := rand.New(rand.NewSource(t.Seed))
	t.root = t.grow(x, labels, idx, 0, minLeaf, rng)
	return nil
}

// grow recursively builds the tree over the sample indices idx.
func (t *DecisionTree) grow(x [][]float64, labels []string, idx []int, depth, minLeaf int, rng *rand.Rand) *treeNode {
	counts := map[string]int{}
	for _, i := range idx {
		counts[labels[i]]++
	}
	majority, best := "", -1
	// Deterministic tie-break on the sorted label order.
	for _, l := range t.labels {
		if c := counts[l]; c > best {
			majority, best = l, c
		}
	}
	pure := best == len(idx)
	if pure || (t.MaxDepth > 0 && depth >= t.MaxDepth) || len(idx) < 2*minLeaf {
		return &treeNode{feature: -1, label: majority}
	}

	feature, threshold, ok := t.bestSplit(x, labels, idx, minLeaf, rng)
	if !ok {
		return &treeNode{feature: -1, label: majority}
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if x[i][feature] <= threshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return &treeNode{feature: -1, label: majority}
	}
	return &treeNode{
		feature:   feature,
		threshold: threshold,
		left:      t.grow(x, labels, leftIdx, depth+1, minLeaf, rng),
		right:     t.grow(x, labels, rightIdx, depth+1, minLeaf, rng),
	}
}

// bestSplit finds the (feature, threshold) pair minimizing weighted Gini
// impurity over candidate features.
func (t *DecisionTree) bestSplit(x [][]float64, labels []string, idx []int, minLeaf int, rng *rand.Rand) (int, float64, bool) {
	features := make([]int, t.nDim)
	for i := range features {
		features[i] = i
	}
	if t.FeatureSubset > 0 && t.FeatureSubset < t.nDim {
		rng.Shuffle(len(features), func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:t.FeatureSubset]
	}

	bestGini := math.Inf(1)
	bestFeature, bestThreshold := -1, 0.0
	type valueLabel struct {
		v float64
		l string
	}
	vl := make([]valueLabel, len(idx))
	for _, f := range features {
		for k, i := range idx {
			vl[k] = valueLabel{v: x[i][f], l: labels[i]}
		}
		sort.Slice(vl, func(a, b int) bool { return vl[a].v < vl[b].v })

		leftCounts := map[string]int{}
		rightCounts := map[string]int{}
		for _, e := range vl {
			rightCounts[e.l]++
		}
		nLeft, nRight := 0, len(vl)
		for k := 0; k < len(vl)-1; k++ {
			leftCounts[vl[k].l]++
			rightCounts[vl[k].l]--
			nLeft++
			nRight--
			if vl[k].v == vl[k+1].v {
				continue // cannot split between equal values
			}
			if nLeft < minLeaf || nRight < minLeaf {
				continue
			}
			g := weightedGini(t.labels, leftCounts, nLeft, rightCounts, nRight)
			if g < bestGini {
				bestGini = g
				bestFeature = f
				bestThreshold = (vl[k].v + vl[k+1].v) / 2
			}
		}
	}
	return bestFeature, bestThreshold, bestFeature >= 0
}

func weightedGini(labels []string, left map[string]int, nLeft int, right map[string]int, nRight int) float64 {
	return (float64(nLeft)*gini(labels, left, nLeft) + float64(nRight)*gini(labels, right, nRight)) /
		float64(nLeft+nRight)
}

// gini sums over the sorted labels, not the map: the order of the
// floating-point subtractions decides near-ties between splits, so it
// must not change from run to run.
func gini(labels []string, counts map[string]int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, l := range labels {
		p := float64(counts[l]) / float64(n)
		g -= p * p
	}
	return g
}

// PredictClass implements MultiClassifier.
func (t *DecisionTree) PredictClass(x []float64) (string, error) {
	if t.root == nil {
		return "", ErrNotFitted
	}
	if len(x) != t.nDim {
		return "", fmt.Errorf("%w: feature length %d, model expects %d", ErrBadTrainingSet, len(x), t.nDim)
	}
	node := t.root
	for node.feature >= 0 {
		if x[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.label, nil
}

// Depth returns the depth of the fitted tree (0 for a single leaf), for
// tests and diagnostics.
func (t *DecisionTree) Depth() int {
	var walk func(n *treeNode) int
	walk = func(n *treeNode) int {
		if n == nil || n.feature < 0 {
			return 0
		}
		l, r := walk(n.left), walk(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(t.root)
}
