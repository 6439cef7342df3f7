package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAuthMetrics(t *testing.T) {
	var m AuthMetrics
	// 9 legit accepted, 1 legit rejected, 18 impostors rejected, 2 accepted.
	for i := 0; i < 9; i++ {
		m.Observe(true, true)
	}
	m.Observe(true, false)
	for i := 0; i < 18; i++ {
		m.Observe(false, false)
	}
	m.Observe(false, true)
	m.Observe(false, true)

	if got := m.FRR(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("FRR = %v, want 0.1", got)
	}
	if got := m.FAR(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("FAR = %v, want 0.1", got)
	}
	if got := m.Accuracy(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("Accuracy = %v, want 0.9", got)
	}
	if n := m.TruePositive + m.FalseNegative + m.TrueNegative + m.FalsePositive; n != 30 {
		t.Errorf("observations = %d, want 30", n)
	}
	if s := m.String(); !strings.Contains(s, "FRR") {
		t.Errorf("String() = %q", s)
	}
}

func TestAuthMetricsEmpty(t *testing.T) {
	var m AuthMetrics
	if m.FRR() != 0 || m.FAR() != 0 || m.Accuracy() != 0 {
		t.Errorf("empty metrics should report zeros")
	}
}

func TestAuthMetricsMerge(t *testing.T) {
	a := AuthMetrics{TruePositive: 1, FalseNegative: 2, TrueNegative: 3, FalsePositive: 4}
	b := AuthMetrics{TruePositive: 10, FalseNegative: 20, TrueNegative: 30, FalsePositive: 40}
	a.Merge(b)
	if a.TruePositive != 11 || a.FalseNegative != 22 || a.TrueNegative != 33 || a.FalsePositive != 44 {
		t.Errorf("Merge = %+v", a)
	}
}

func TestConfusionMatrix(t *testing.T) {
	c := NewConfusionMatrix()
	for i := 0; i < 99; i++ {
		c.Observe("stationary", "stationary")
	}
	c.Observe("stationary", "moving")
	for i := 0; i < 98; i++ {
		c.Observe("moving", "moving")
	}
	c.Observe("moving", "stationary")
	c.Observe("moving", "stationary")

	if got := c.Rate("stationary", "stationary"); math.Abs(got-0.99) > 1e-12 {
		t.Errorf("Rate = %v, want 0.99", got)
	}
	if got := c.Rate("moving", "stationary"); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("Rate = %v, want 0.02", got)
	}
	if acc := c.Accuracy(); math.Abs(acc-197.0/200.0) > 1e-12 {
		t.Errorf("Accuracy = %v", acc)
	}
	labels := c.Labels()
	if len(labels) != 2 || labels[0] != "moving" || labels[1] != "stationary" {
		t.Errorf("Labels = %v", labels)
	}
	if s := c.String(); !strings.Contains(s, "stationary") {
		t.Errorf("String() = %q", s)
	}
}

func TestConfusionMatrixEmpty(t *testing.T) {
	c := NewConfusionMatrix()
	if c.Accuracy() != 0 || c.Rate("a", "b") != 0 {
		t.Errorf("empty matrix should report zeros")
	}
}

// Property: FRR, FAR, accuracy always in [0,1]; accuracy consistent with
// the four counters.
func TestAuthMetricsInvariantProperty(t *testing.T) {
	f := func(tp, fn, tn, fp uint8) bool {
		m := AuthMetrics{
			TruePositive: int(tp), FalseNegative: int(fn),
			TrueNegative: int(tn), FalsePositive: int(fp),
		}
		frr, far, acc := m.FRR(), m.FAR(), m.Accuracy()
		if frr < 0 || frr > 1 || far < 0 || far > 1 || acc < 0 || acc > 1 {
			return false
		}
		if n := int(tp) + int(fn) + int(tn) + int(fp); n > 0 {
			want := float64(int(tp)+int(tn)) / float64(n)
			if math.Abs(acc-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	folds, err := KFold(25, 10, rng)
	if err != nil {
		t.Fatalf("KFold: %v", err)
	}
	if len(folds) != 10 {
		t.Fatalf("got %d folds, want 10", len(folds))
	}
	seen := make(map[int]int)
	for _, f := range folds {
		if len(f.TrainIdx)+len(f.TestIdx) != 25 {
			t.Errorf("fold covers %d samples, want 25", len(f.TrainIdx)+len(f.TestIdx))
		}
		for _, i := range f.TestIdx {
			seen[i]++
		}
		overlap := make(map[int]bool)
		for _, i := range f.TrainIdx {
			overlap[i] = true
		}
		for _, i := range f.TestIdx {
			if overlap[i] {
				t.Errorf("index %d in both train and test", i)
			}
		}
	}
	for i := 0; i < 25; i++ {
		if seen[i] != 1 {
			t.Errorf("sample %d appears in %d test sets, want 1", i, seen[i])
		}
	}
}

func TestKFoldErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := KFold(5, 1, rng); err == nil {
		t.Errorf("k=1 should error")
	}
	if _, err := KFold(3, 10, rng); err == nil {
		t.Errorf("n<k should error")
	}
}

func TestStratifiedKFold(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	y := make([]bool, 100)
	for i := 0; i < 20; i++ {
		y[i] = true // 20% positive
	}
	folds, err := StratifiedKFold(y, 5, rng)
	if err != nil {
		t.Fatalf("StratifiedKFold: %v", err)
	}
	for fi, f := range folds {
		pos := 0
		for _, i := range f.TestIdx {
			if y[i] {
				pos++
			}
		}
		if pos != 4 {
			t.Errorf("fold %d has %d positives in test, want 4", fi, pos)
		}
	}
}

func TestStratifiedKFoldErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	y := []bool{true, false, false, false, false}
	if _, err := StratifiedKFold(y, 3, rng); err == nil {
		t.Errorf("too few positives should error")
	}
	if _, err := StratifiedKFold(y, 1, rng); err == nil {
		t.Errorf("k=1 should error")
	}
}
