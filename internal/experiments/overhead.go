package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"smarteryou/internal/ml"
)

// OverheadResult reproduces the seed-determined part of Sections V-H1 and
// V-H2: the size of the paper's training problem, the orders of the two
// equivalent KRR systems (Eq. 7 vs Eq. 6) behind its complexity claim,
// and the serialized model size. The section's times are measured by the
// benchmark, never here, so the report is a pure function of the seed.
type OverheadResult struct {
	// N and M are the training windows and features of the paper-sized
	// problem (720 and 28).
	N, M int
	// PrimalOrder and DualOrder are the orders of the primal (M x M,
	// Eq. 7) and dual (N x N, Eq. 6) linear systems.
	PrimalOrder, DualOrder int
	// ModelBytes is the serialized size of one authentication model.
	ModelBytes int
}

// RunOverhead trains one KRR model on the paper-sized problem and reports
// its shape and serialized size.
func RunOverhead(d *Data) (*OverheadResult, error) {
	const (
		nTrain = 720 // 800 windows, 9/10 in the training fold
		dim    = 28
	)
	rng := rand.New(rand.NewSource(d.Cfg.Seed * 50021))
	x := make([][]float64, nTrain)
	y := make([]bool, nTrain)
	for i := range x {
		row := make([]float64, dim)
		base := -1.0
		if i%2 == 0 {
			base = 1.0
		}
		for j := range row {
			row[j] = base + rng.NormFloat64()
		}
		x[i] = row
		y[i] = i%2 == 0
	}

	// Auto mode picks the primal solve, as the paper does.
	krr := ml.NewKRR(1)
	if err := krr.Fit(x, y); err != nil {
		return nil, fmt.Errorf("overhead: train: %w", err)
	}
	blob, err := krr.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("overhead: marshal: %w", err)
	}
	return &OverheadResult{
		N: nTrain, M: dim,
		PrimalOrder: dim, DualOrder: nTrain,
		ModelBytes: len(blob),
	}, nil
}

// Render formats the overhead report against the paper's numbers.
func (r *OverheadResult) Render() string {
	var b strings.Builder
	b.WriteString("SECTION V-H: system overhead\n")
	fmt.Fprintf(&b, "KRR training problem:               N = %d windows, M = %d features\n", r.N, r.M)
	fmt.Fprintf(&b, "KRR primal solve (Eq. 7, O(M^3)):   %d x %d system\n", r.PrimalOrder, r.PrimalOrder)
	fmt.Fprintf(&b, "KRR dual solve   (Eq. 6, O(N^3)):   %d x %d system   (paper: O(720^2.373) vs O(28^2.373))\n",
		r.DualOrder, r.DualOrder)
	fmt.Fprintf(&b, "Serialized model size:              %d bytes\n", r.ModelBytes)
	b.WriteString("Times are measured by the benchmark: core.train_ms, features.extract_us, ctxdetect.detect_ns, core.score_ns and BenchmarkKRRPrimalVsDual\n")
	return b.String()
}
