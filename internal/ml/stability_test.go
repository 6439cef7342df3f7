package ml

import (
	"math"
	"math/rand"
	"testing"
)

func TestIncrementalKRRLongRunStability(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const dim = 28
	const window = 400
	inc, err := NewIncrementalKRR(1, dim)
	if err != nil {
		t.Fatal(err)
	}
	queue := make([][]float64, 0, window)
	labels := make([]bool, 0, window)
	gen := func(i int) ([]float64, bool) {
		pos := i%2 == 0
		base := -1.0
		if pos {
			base = 1.0
		}
		x := make([]float64, dim)
		for j := range x {
			x[j] = base + rng.NormFloat64()
		}
		return x, pos
	}
	for i := 0; i < 5000; i++ {
		x, lab := gen(i)
		if err := inc.AddSample(x, lab); err != nil {
			t.Fatal(err)
		}
		queue = append(queue, x)
		labels = append(labels, lab)
		if len(queue) > window {
			if err := inc.RemoveSample(queue[0], labels[0]); err != nil {
				t.Fatal(err)
			}
			queue = queue[1:]
			labels = labels[1:]
		}
	}
	batch := &KRR{Rho: 1, Kernel: IdentityKernel{}, Mode: KRRModePrimal}
	if err := batch.Fit(queue, labels); err != nil {
		t.Fatal(err)
	}
	wi, wb := weights(inc), batch.w
	var maxDiff float64
	for j := range wi {
		if d := math.Abs(wi[j] - wb[j]); d > maxDiff {
			maxDiff = d
		}
	}
	t.Logf("max weight drift after 5000 sliding updates: %.3e", maxDiff)
	if maxDiff > 1e-6 {
		t.Errorf("Sherman-Morrison drift too large: %v", maxDiff)
	}
}
