package ml

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// weights is the incremental model's current primal weight vector.
func weights(k *IncrementalKRR) []float64 {
	k.refreshWeights()
	return append([]float64(nil), k.w...)
}

func TestIncrementalKRRMatchesBatchPrimal(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x, y := twoBlobs(rng, 80, 5, 1.5, 0.8)

	batch := &KRR{Rho: 0.7, Kernel: IdentityKernel{}, Mode: KRRModePrimal}
	if err := batch.Fit(x, y); err != nil {
		t.Fatalf("batch Fit: %v", err)
	}
	inc, err := NewIncrementalKRR(0.7, 5)
	if err != nil {
		t.Fatalf("NewIncrementalKRR: %v", err)
	}
	for i, row := range x {
		if err := inc.AddSample(row, y[i]); err != nil {
			t.Fatalf("AddSample %d: %v", i, err)
		}
	}
	probe := []float64{0.3, -0.4, 1.1, 0.2, -0.9}
	sb, _ := batch.Score(probe)
	si, err := inc.Score(probe)
	if err != nil {
		t.Fatalf("Score: %v", err)
	}
	if math.Abs(sb-si) > 1e-8 {
		t.Errorf("incremental score %v != batch primal %v", si, sb)
	}
	if inc.N() != 80 {
		t.Errorf("N = %d, want 80", inc.N())
	}
}

func TestIncrementalKRRFitInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	x, y := twoBlobs(rng, 100, 4, 2, 0.5)
	inc, err := NewIncrementalKRR(1, 4)
	if err != nil {
		t.Fatalf("NewIncrementalKRR: %v", err)
	}
	if err := inc.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := accuracy(t, inc, x, y); acc < 0.99 {
		t.Errorf("accuracy = %v, want >= 0.99 on separable data", acc)
	}
}

// Property: unlearning a sample restores the exact pre-addition model —
// the defining guarantee of machine unlearning.
func TestIncrementalKRRUnlearnRestoresProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(5)
		x, y := twoBlobs(rng, 20+rng.Intn(30), dim, 1.5, 0.8)
		inc, err := NewIncrementalKRR(1, dim)
		if err != nil {
			t.Fatalf("NewIncrementalKRR: %v", err)
		}
		for i, row := range x {
			if err := inc.AddSample(row, y[i]); err != nil {
				t.Fatalf("AddSample: %v", err)
			}
		}
		before := weights(inc)
		extra := make([]float64, dim)
		for j := range extra {
			extra[j] = rng.NormFloat64() * 2
		}
		label := rng.Intn(2) == 0
		if err := inc.AddSample(extra, label); err != nil {
			t.Fatalf("AddSample extra: %v", err)
		}
		if err := inc.RemoveSample(extra, label); err != nil {
			t.Fatalf("RemoveSample: %v", err)
		}
		after := weights(inc)
		for j := range before {
			if math.Abs(before[j]-after[j]) > 1e-7 {
				t.Fatalf("seed %d: weight %d not restored: %v -> %v", seed, j, before[j], after[j])
			}
		}
	}
}

// Property: sliding-window model (add new, remove oldest) stays equivalent
// to a batch model trained on the window contents.
func TestIncrementalKRRSlidingWindowProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 3
		x, y := twoBlobs(rng, 40, dim, 1.5, 0.8)
		const window = 20
		inc, err := NewIncrementalKRR(1, dim)
		if err != nil {
			return false
		}
		for i := 0; i < window; i++ {
			if err := inc.AddSample(x[i], y[i]); err != nil {
				return false
			}
		}
		for i := window; i < len(x); i++ {
			if err := inc.AddSample(x[i], y[i]); err != nil {
				return false
			}
			if err := inc.RemoveSample(x[i-window], y[i-window]); err != nil {
				return false
			}
		}
		// Batch model over the final window.
		batch := &KRR{Rho: 1, Kernel: IdentityKernel{}, Mode: KRRModePrimal}
		if err := batch.Fit(x[len(x)-window:], y[len(y)-window:]); err != nil {
			// The final window may be single-class; skip those draws.
			return true
		}
		probe := make([]float64, dim)
		for j := range probe {
			probe[j] = rng.NormFloat64()
		}
		sb, _ := batch.Score(probe)
		si, err := inc.Score(probe)
		if err != nil {
			return false
		}
		return math.Abs(sb-si) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalKRRValidation(t *testing.T) {
	if _, err := NewIncrementalKRR(0, 3); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("rho=0 err = %v", err)
	}
	if _, err := NewIncrementalKRR(1, 0); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("dim=0 err = %v", err)
	}
	inc, err := NewIncrementalKRR(1, 3)
	if err != nil {
		t.Fatalf("NewIncrementalKRR: %v", err)
	}
	if _, err := inc.Score([]float64{1, 2, 3}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("empty Score err = %v", err)
	}
	if _, err := predict(inc, []float64{1, 2, 3}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("empty Predict err = %v", err)
	}
	if err := inc.AddSample([]float64{1}, true); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("wrong-dim add err = %v", err)
	}
	if err := inc.RemoveSample([]float64{1, 2, 3}, true); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("remove from empty err = %v", err)
	}
	if err := inc.AddSample([]float64{1, 0, 0}, true); err != nil {
		t.Fatalf("AddSample: %v", err)
	}
	if err := inc.RemoveSample([]float64{0, 5, 0}, false); err != nil {
		t.Logf("removing a never-added vector: %v (feasible removals cannot always be detected)", err)
	}
	// Removing a vector whose downdate is infeasible must error.
	inc2, _ := NewIncrementalKRR(1, 2)
	if err := inc2.AddSample([]float64{1, 0}, true); err != nil {
		t.Fatalf("AddSample: %v", err)
	}
	if err := inc2.RemoveSample([]float64{100, 0}, true); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("infeasible downdate err = %v, want ErrBadTrainingSet", err)
	}
}

func TestIncrementalKRRFitRejectsWrongDim(t *testing.T) {
	inc, _ := NewIncrementalKRR(1, 3)
	if err := inc.Fit([][]float64{{1, 2}, {3, 4}}, []bool{true, false}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("wrong-dim Fit err = %v", err)
	}
}
