package ml

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSVMSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x, y := twoBlobs(rng, 300, 6, 2, 0.5)
	s := NewSVM()
	if err := s.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := accuracy(t, s, x, y); acc < 0.98 {
		t.Errorf("SVM training accuracy = %v, want >= 0.98", acc)
	}
}

func TestSVMDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	x, y := twoBlobs(rng, 100, 4, 1.5, 0.8)
	a := NewSVM()
	b := NewSVM()
	if err := a.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if err := b.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	probe := []float64{0.3, -0.2, 0.5, 0.1}
	sa, _ := a.Score(probe)
	sb, _ := b.Score(probe)
	if sa != sb {
		t.Errorf("same seed, different scores: %v vs %v", sa, sb)
	}
}

func TestSVMErrors(t *testing.T) {
	s := NewSVM()
	if _, err := s.Score([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted Score err = %v", err)
	}
	if err := s.Fit(nil, nil); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("empty Fit err = %v", err)
	}
	bad := &SVM{Lambda: -1}
	if err := bad.Fit([][]float64{{1}, {2}}, []bool{true, false}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("negative lambda err = %v", err)
	}
	rng := rand.New(rand.NewSource(33))
	x, y := twoBlobs(rng, 20, 3, 2, 0.5)
	if err := s.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if _, err := s.Score([]float64{1}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("wrong-dim Score err = %v", err)
	}
}

func TestLinearRegressionSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	x, y := twoBlobs(rng, 200, 5, 2, 0.5)
	l := NewLinearRegression()
	if err := l.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := accuracy(t, l, x, y); acc < 0.98 {
		t.Errorf("linreg training accuracy = %v, want >= 0.98", acc)
	}
}

func TestLinearRegressionInterceptMatters(t *testing.T) {
	// Classes separated along x=5 vs x=7: without an intercept the
	// through-origin decision would misclassify everything on one side.
	rng := rand.New(rand.NewSource(35))
	var x [][]float64
	var y []bool
	for i := 0; i < 200; i++ {
		pos := i%2 == 0
		center := 5.0
		if pos {
			center = 7.0
		}
		x = append(x, []float64{center + rng.NormFloat64()*0.3})
		y = append(y, pos)
	}
	l := NewLinearRegression()
	if err := l.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := accuracy(t, l, x, y); acc < 0.95 {
		t.Errorf("linreg with offset classes accuracy = %v, want >= 0.95", acc)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	l := NewLinearRegression()
	if _, err := l.Score([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted Score err = %v", err)
	}
	if _, err := predict(l, []float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted Predict err = %v", err)
	}
	if err := l.Fit([][]float64{{1}}, []bool{true}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("single-class Fit err = %v", err)
	}
}

func TestGaussianNBSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	x, y := twoBlobs(rng, 300, 6, 2, 0.7)
	g := NewGaussianNB()
	if err := g.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := accuracy(t, g, x, y); acc < 0.97 {
		t.Errorf("NB training accuracy = %v, want >= 0.97", acc)
	}
}

func TestGaussianNBUnbalancedPriors(t *testing.T) {
	// With identical likelihoods, the prior must break the tie toward the
	// majority class.
	rng := rand.New(rand.NewSource(37))
	var x [][]float64
	var y []bool
	for i := 0; i < 90; i++ {
		x = append(x, []float64{rng.NormFloat64()})
		y = append(y, false)
	}
	for i := 0; i < 10; i++ {
		x = append(x, []float64{rng.NormFloat64()})
		y = append(y, true)
	}
	g := NewGaussianNB()
	if err := g.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	got, err := predict(g, []float64{0})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if got {
		t.Errorf("majority-negative data should predict negative at the shared mode")
	}
}

func TestGaussianNBConstantFeature(t *testing.T) {
	// A feature that never varies must not produce NaN/Inf scores.
	x := [][]float64{{1, 0}, {1, 1}, {1, 0.1}, {1, 0.9}}
	y := []bool{false, true, false, true}
	g := NewGaussianNB()
	if err := g.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	s, err := g.Score([]float64{1, 0.5})
	if err != nil {
		t.Fatalf("Score: %v", err)
	}
	if s != s || s > 1e308 || s < -1e308 { // NaN or Inf check
		t.Errorf("constant feature produced degenerate score %v", s)
	}
}

func TestGaussianNBErrors(t *testing.T) {
	g := NewGaussianNB()
	if _, err := g.Score([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted Score err = %v", err)
	}
	if err := g.Fit(nil, nil); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("empty Fit err = %v", err)
	}
}

func TestKNNSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	x, y := twoBlobs(rng, 200, 4, 2, 0.5)
	k := NewKNN()
	if err := k.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := accuracy(t, k, x, y); acc < 0.98 {
		t.Errorf("kNN training accuracy = %v, want >= 0.98", acc)
	}
}

func TestKNNScoreBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y := twoBlobs(rng, 20+rng.Intn(50), 3, 1, 1)
		k := &KNN{K: 1 + rng.Intn(10)}
		if err := k.Fit(x, y); err != nil {
			return false
		}
		probe := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		s, err := k.Score(probe)
		if err != nil {
			return false
		}
		return s >= -1 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKNNErrors(t *testing.T) {
	k := NewKNN()
	if _, err := k.Score([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted Score err = %v", err)
	}
	if _, err := predict(k, []float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted Predict err = %v", err)
	}
	rng := rand.New(rand.NewSource(39))
	x, y := twoBlobs(rng, 20, 2, 2, 0.3)
	if err := k.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if _, err := k.Score([]float64{1, 2, 3}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("wrong-dim Score err = %v", err)
	}
}

// Every classifier should learn the same easy problem; this guards the
// shared interface contract used by the Table VI experiment.
func TestAllClassifiersOnSharedProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	x, y := twoBlobs(rng, 400, 8, 1.5, 0.6)
	classifiers := map[string]BinaryClassifier{
		"krr":    NewKRR(0.1),
		"svm":    NewSVM(),
		"linreg": NewLinearRegression(),
		"nb":     NewGaussianNB(),
		"knn":    NewKNN(),
	}
	for name, c := range classifiers {
		if err := c.Fit(x, y); err != nil {
			t.Fatalf("%s Fit: %v", name, err)
		}
		if acc := accuracy(t, c, x, y); acc < 0.95 {
			t.Errorf("%s accuracy = %v, want >= 0.95", name, acc)
		}
	}
}
