package ml

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoBlobs generates a linearly separable two-class dataset: positives near
// +center, negatives near -center.
func twoBlobs(rng *rand.Rand, n, dim int, separation, noise float64) ([][]float64, []bool) {
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := range x {
		pos := i%2 == 0
		row := make([]float64, dim)
		sign := -1.0
		if pos {
			sign = 1.0
		}
		for j := range row {
			row[j] = sign*separation + rng.NormFloat64()*noise
		}
		x[i] = row
		y[i] = pos
	}
	return x, y
}

// predict is the classifiers' decision rule: Score(x) > 0 is the positive
// class.
func predict(c BinaryClassifier, x []float64) (bool, error) {
	s, err := c.Score(x)
	if err != nil {
		return false, err
	}
	return s > 0, nil
}

func accuracy(t *testing.T, c BinaryClassifier, x [][]float64, y []bool) float64 {
	t.Helper()
	correct := 0
	for i, row := range x {
		got, err := predict(c, row)
		if err != nil {
			t.Fatalf("Predict: %v", err)
		}
		if got == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

func TestKRRSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x, y := twoBlobs(rng, 200, 6, 2, 0.5)
	k := NewKRR(0.1)
	if err := k.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := accuracy(t, k, x, y); acc < 0.99 {
		t.Errorf("training accuracy = %v, want >= 0.99 on separable data", acc)
	}
}

func TestKRRPrimalDualEquivalence(t *testing.T) {
	// The paper's Appendix proves Eq. 6 == Eq. 7; verify numerically.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		dim := 2 + rng.Intn(6)
		x, y := twoBlobs(rng, n, dim, 1.5, 1.0)

		primal := &KRR{Rho: 0.5, Kernel: IdentityKernel{}, Mode: KRRModePrimal}
		dual := &KRR{Rho: 0.5, Kernel: IdentityKernel{}, Mode: KRRModeDual}
		if err := primal.Fit(x, y); err != nil {
			return false
		}
		if err := dual.Fit(x, y); err != nil {
			return false
		}
		probe := make([]float64, dim)
		for trial := 0; trial < 10; trial++ {
			for j := range probe {
				probe[j] = rng.NormFloat64() * 3
			}
			sp, err1 := primal.Score(probe)
			sd, err2 := dual.Score(probe)
			if err1 != nil || err2 != nil {
				return false
			}
			if math.Abs(sp-sd) > 1e-6*(1+math.Abs(sp)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKRRAutoModeSelectsPrimalWhenCheaper(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x, y := twoBlobs(rng, 100, 4, 2, 0.5) // N=100 > M=4 -> primal
	k := NewKRR(0.1)
	if err := k.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if !k.primal {
		t.Errorf("auto mode should choose primal for N=100, M=4")
	}
	if len(k.w) != 4 {
		t.Errorf("weights length = %d, want 4", len(k.w))
	}

	x2, y2 := twoBlobs(rng, 6, 10, 2, 0.5) // N=6 < M=10 -> dual
	k2 := NewKRR(0.1)
	if err := k2.Fit(x2, y2); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if k2.primal {
		t.Errorf("auto mode should choose dual for N=6, M=10")
	}
	if k2.w != nil {
		t.Errorf("dual model should hold no primal weights")
	}
}

func TestKRRRBFKernel(t *testing.T) {
	// XOR-style data that a linear model cannot fit but RBF can.
	rng := rand.New(rand.NewSource(23))
	var x [][]float64
	var y []bool
	for i := 0; i < 200; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		x = append(x, []float64{a, b})
		y = append(y, a*b > 0)
	}
	k := &KRR{Rho: 0.01, Kernel: RBFKernel{Gamma: 4}, Mode: KRRModeDual}
	if err := k.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := accuracy(t, k, x, y); acc < 0.9 {
		t.Errorf("RBF KRR accuracy on XOR = %v, want >= 0.9", acc)
	}
	linear := NewKRR(0.01)
	if err := linear.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if accLin := accuracy(t, linear, x, y); accLin > 0.75 {
		t.Logf("linear KRR on XOR unexpectedly good: %v", accLin)
	}
}

func TestKRRErrors(t *testing.T) {
	k := NewKRR(0.1)
	if _, err := k.Score([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted Score err = %v, want ErrNotFitted", err)
	}
	if _, err := predict(k, []float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted Predict err = %v, want ErrNotFitted", err)
	}
	if err := k.Fit(nil, nil); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("empty Fit err = %v, want ErrBadTrainingSet", err)
	}
	if err := k.Fit([][]float64{{1}, {2}}, []bool{true}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("mismatched labels err = %v", err)
	}
	if err := k.Fit([][]float64{{1}, {2}}, []bool{true, true}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("single-class err = %v", err)
	}
	if err := k.Fit([][]float64{{1}, {2, 3}}, []bool{true, false}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("ragged features err = %v", err)
	}
	bad := NewKRR(0)
	if err := bad.Fit([][]float64{{1}, {2}}, []bool{true, false}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("rho=0 err = %v", err)
	}
	badMode := &KRR{Rho: 1, Kernel: RBFKernel{Gamma: 1}, Mode: KRRModePrimal}
	if err := badMode.Fit([][]float64{{1}, {2}}, []bool{true, false}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("primal+rbf err = %v", err)
	}
}

func TestKRRDimensionCheckAtScore(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x, y := twoBlobs(rng, 50, 3, 2, 0.5)
	k := NewKRR(0.1)
	if err := k.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if _, err := k.Score([]float64{1, 2}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("wrong-dim Score err = %v", err)
	}
}

func TestKRRConfidenceScoreMagnitude(t *testing.T) {
	// Points far on the positive side must score higher than marginal ones
	// — the property the Confidence Score retraining trigger relies on.
	rng := rand.New(rand.NewSource(25))
	x, y := twoBlobs(rng, 200, 4, 2, 0.5)
	k := NewKRR(0.1)
	if err := k.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	deep, err := k.Score([]float64{2, 2, 2, 2})
	if err != nil {
		t.Fatalf("Score: %v", err)
	}
	marginal, err := k.Score([]float64{0.1, 0.1, 0.1, 0.1})
	if err != nil {
		t.Fatalf("Score: %v", err)
	}
	if deep <= marginal {
		t.Errorf("deep positive score %v should exceed marginal score %v", deep, marginal)
	}
}
