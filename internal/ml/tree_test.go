package ml

import (
	"encoding/json"
	"errors"
	"math/rand"
	"testing"
)

// threeClusters generates three labelled Gaussian clusters in 2D.
func threeClusters(rng *rand.Rand, perClass int, noise float64) ([][]float64, []string) {
	centers := map[string][2]float64{
		"a": {0, 0},
		"b": {5, 0},
		"c": {0, 5},
	}
	var x [][]float64
	var labels []string
	for label, c := range centers {
		for i := 0; i < perClass; i++ {
			x = append(x, []float64{c[0] + rng.NormFloat64()*noise, c[1] + rng.NormFloat64()*noise})
			labels = append(labels, label)
		}
	}
	return x, labels
}

func classAccuracy(t *testing.T, c MultiClassifier, x [][]float64, labels []string) float64 {
	t.Helper()
	correct := 0
	for i, row := range x {
		got, err := c.PredictClass(row)
		if err != nil {
			t.Fatalf("PredictClass: %v", err)
		}
		if got == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

// treeDepth is the depth of a fitted tree, 0 for a single leaf.
func treeDepth(t *DecisionTree) int {
	var walk func(n *treeNode) int
	walk = func(n *treeNode) int {
		if n == nil || n.feature < 0 {
			return 0
		}
		return 1 + max(walk(n.left), walk(n.right))
	}
	return walk(t.root)
}

func TestDecisionTreeThreeClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x, labels := threeClusters(rng, 100, 0.5)
	tree := &DecisionTree{MaxDepth: 12, MinLeaf: 2}
	if err := tree.FitClasses(x, labels); err != nil {
		t.Fatalf("FitClasses: %v", err)
	}
	if acc := classAccuracy(t, tree, x, labels); acc < 0.98 {
		t.Errorf("tree accuracy = %v, want >= 0.98", acc)
	}
}

func TestDecisionTreePureLeafShortCircuit(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	labels := []string{"same", "same", "same"}
	tree := &DecisionTree{MaxDepth: 12, MinLeaf: 2}
	if err := tree.FitClasses(x, labels); err != nil {
		t.Fatalf("FitClasses: %v", err)
	}
	if d := treeDepth(tree); d != 0 {
		t.Errorf("pure data tree depth = %d, want 0", d)
	}
	got, err := tree.PredictClass([]float64{99})
	if err != nil || got != "same" {
		t.Errorf("PredictClass = %q, %v", got, err)
	}
}

func TestDecisionTreeMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x, labels := threeClusters(rng, 60, 1.5)
	tree := &DecisionTree{MaxDepth: 2, MinLeaf: 1}
	if err := tree.FitClasses(x, labels); err != nil {
		t.Fatalf("FitClasses: %v", err)
	}
	if d := treeDepth(tree); d > 2 {
		t.Errorf("depth = %d exceeds MaxDepth 2", d)
	}
}

func TestDecisionTreeConstantFeatures(t *testing.T) {
	// All feature values identical: no split is possible, so the tree must
	// fall back to a majority leaf instead of looping.
	x := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	labels := []string{"a", "a", "b", "a"}
	tree := &DecisionTree{MaxDepth: 12, MinLeaf: 2}
	if err := tree.FitClasses(x, labels); err != nil {
		t.Fatalf("FitClasses: %v", err)
	}
	got, err := tree.PredictClass([]float64{1, 1})
	if err != nil || got != "a" {
		t.Errorf("PredictClass = %q, %v; want majority label a", got, err)
	}
}

func TestDecisionTreeErrors(t *testing.T) {
	tree := &DecisionTree{MaxDepth: 12, MinLeaf: 2}
	if _, err := tree.PredictClass([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted err = %v", err)
	}
	if err := tree.FitClasses(nil, nil); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("empty err = %v", err)
	}
	if err := tree.FitClasses([][]float64{{1}}, []string{"a", "b"}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("mismatch err = %v", err)
	}
	if err := tree.FitClasses([][]float64{{1}, {1, 2}}, []string{"a", "b"}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("ragged err = %v", err)
	}
	if err := tree.FitClasses([][]float64{{1}, {2}}, []string{"a", "b"}); err != nil {
		t.Fatalf("FitClasses: %v", err)
	}
	if _, err := tree.PredictClass([]float64{1, 2}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("wrong-dim err = %v", err)
	}
}

func TestRandomForestThreeClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x, labels := threeClusters(rng, 100, 0.8)
	rf := NewRandomForest()
	if err := rf.FitClasses(x, labels); err != nil {
		t.Fatalf("FitClasses: %v", err)
	}
	if acc := classAccuracy(t, rf, x, labels); acc < 0.97 {
		t.Errorf("forest accuracy = %v, want >= 0.97", acc)
	}
	if got := rf.labels; len(got) != 3 || got[0] != "a" {
		t.Errorf("labels = %v", got)
	}
}

func TestRandomForestVotes(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	x, labels := threeClusters(rng, 50, 0.3)
	rf := &RandomForest{Trees: 15, MaxDepth: 8, Seed: 7}
	if err := rf.FitClasses(x, labels); err != nil {
		t.Fatalf("FitClasses: %v", err)
	}
	label, share, err := rf.Vote([]float64{0, 0})
	if err != nil {
		t.Fatalf("Vote: %v", err)
	}
	if label != "a" || share < 12.0/15 {
		t.Errorf("cluster-a point: Vote = %q with %v of 15 votes, want a with >= 12", label, share*15)
	}
	// A tie goes to the first of the sorted labels.
	tie := &RandomForest{trees: []*DecisionTree{
		{nDim: 1, root: &treeNode{feature: -1, label: "b"}},
		{nDim: 1, root: &treeNode{feature: -1, label: "a"}},
	}, labels: []string{"a", "b"}, nDim: 1}
	if label, share, err := tie.Vote([]float64{0}); err != nil || label != "a" || share != 0.5 {
		t.Errorf("tied Vote = %q, %v, %v; want a, 0.5", label, share, err)
	}
}

func TestRandomForestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	x, labels := threeClusters(rng, 40, 1.0)
	a := &RandomForest{Trees: 10, Seed: 5}
	b := &RandomForest{Trees: 10, Seed: 5}
	if err := a.FitClasses(x, labels); err != nil {
		t.Fatalf("FitClasses: %v", err)
	}
	if err := b.FitClasses(x, labels); err != nil {
		t.Fatalf("FitClasses: %v", err)
	}
	for trial := 0; trial < 20; trial++ {
		probe := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		pa, _ := a.PredictClass(probe)
		pb, _ := b.PredictClass(probe)
		if pa != pb {
			t.Fatalf("same seed forests disagree on %v: %q vs %q", probe, pa, pb)
		}
	}
}

func TestRandomForestErrors(t *testing.T) {
	rf := NewRandomForest()
	if _, err := rf.PredictClass([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted err = %v", err)
	}
	if err := rf.FitClasses(nil, nil); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("empty err = %v", err)
	}
}

func TestKRRSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	x, y := twoBlobs(rng, 60, 5, 2, 0.5)
	for _, mode := range []KRRMode{KRRModePrimal, KRRModeDual} {
		orig := &KRR{Rho: 0.3, Kernel: IdentityKernel{}, Mode: mode}
		if err := orig.Fit(x, y); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		blob, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		var restored KRR
		if err := json.Unmarshal(blob, &restored); err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		for trial := 0; trial < 10; trial++ {
			probe := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			so, _ := orig.Score(probe)
			sr, err := restored.Score(probe)
			if err != nil {
				t.Fatalf("restored Score: %v", err)
			}
			if so != sr {
				t.Fatalf("mode %v: restored score %v != original %v", mode, sr, so)
			}
		}
	}
}

func TestKRRSerializationRBF(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	x, y := twoBlobs(rng, 40, 3, 1.5, 0.6)
	orig := &KRR{Rho: 0.2, Kernel: RBFKernel{Gamma: 2.5}, Mode: KRRModeDual}
	if err := orig.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	blob, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var restored KRR
	if err := json.Unmarshal(blob, &restored); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	probe := []float64{0.5, -0.5, 1}
	so, _ := orig.Score(probe)
	sr, _ := restored.Score(probe)
	if so != sr {
		t.Errorf("restored RBF score %v != original %v", sr, so)
	}
}

func TestKRRUnmarshalRejectsCorrupt(t *testing.T) {
	var k KRR
	if err := json.Unmarshal([]byte(`{"kernel":"wavelet"}`), &k); err == nil {
		t.Errorf("unknown kernel should fail")
	}
	if err := json.Unmarshal([]byte(`{"primal":true,"dim":3,"w":[1]}`), &k); err == nil {
		t.Errorf("weight/dim mismatch should fail")
	}
	if err := json.Unmarshal([]byte(`{"primal":false,"dim":1,"alpha":[1,2],"support":[[1]]}`), &k); err == nil {
		t.Errorf("alpha/support mismatch should fail")
	}
	if err := json.Unmarshal([]byte(`not json`), &k); err == nil {
		t.Errorf("invalid json should fail")
	}
}

func TestForestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	x, labels := threeClusters(rng, 60, 0.8)
	orig := &RandomForest{Trees: 8, MaxDepth: 8, Seed: 3}
	if err := orig.FitClasses(x, labels); err != nil {
		t.Fatalf("FitClasses: %v", err)
	}
	blob, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var restored RandomForest
	if err := json.Unmarshal(blob, &restored); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	for trial := 0; trial < 30; trial++ {
		probe := []float64{rng.NormFloat64() * 4, rng.NormFloat64() * 4}
		po, _ := orig.PredictClass(probe)
		pr, err := restored.PredictClass(probe)
		if err != nil {
			t.Fatalf("restored PredictClass: %v", err)
		}
		if po != pr {
			t.Fatalf("restored forest disagrees on %v: %q vs %q", probe, pr, po)
		}
	}
}

func TestTreeUnmarshalRejectsCycles(t *testing.T) {
	var tree DecisionTree
	// Node 0 points to itself as a child.
	corrupt := `{"dim":1,"labels":["a"],"nodes":[{"f":0,"t":0.5,"l":0,"r":0}]}`
	if err := json.Unmarshal([]byte(corrupt), &tree); err == nil {
		t.Errorf("self-referencing tree should fail to decode")
	}
	outOfRange := `{"dim":1,"labels":["a"],"nodes":[{"f":0,"t":0.5,"l":1,"r":99}]}`
	if err := json.Unmarshal([]byte(outOfRange), &tree); err == nil {
		t.Errorf("out-of-range child index should fail to decode")
	}
	// Both children are node 1: a chain of such nodes would rebuild the
	// shared subtree once per path, 2^n times.
	shared := `{"dim":1,"labels":["a"],"nodes":[{"f":0,"t":0.5,"l":1,"r":1},{"f":-1,"lab":"a"}]}`
	if err := json.Unmarshal([]byte(shared), &tree); err == nil {
		t.Errorf("shared child should fail to decode")
	}
	// Splitting on feature 1 of a one-feature model indexed past the
	// input vector in PredictClass.
	badFeature := `{"dim":1,"labels":["a"],"nodes":[{"f":1,"t":0.5,"l":1,"r":2},{"f":-1,"lab":"a"},{"f":-1,"lab":"a"}]}`
	if err := json.Unmarshal([]byte(badFeature), &tree); err == nil {
		t.Errorf("split on a feature past dim should fail to decode")
	}
}
