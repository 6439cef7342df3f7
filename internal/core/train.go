package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"smarteryou/internal/features"
	"smarteryou/internal/ml"
	"smarteryou/internal/sensing"
	"smarteryou/internal/stats"
)

// TrainConfig parameterizes the cloud training module.
type TrainConfig struct {
	// Mode is the device/context configuration to train for.
	Mode Mode
	// Rho is the KRR ridge strength (default 1).
	Rho float64
	// MaxPerClass caps how many legitimate and impostor windows each
	// model trains on — the paper's "data size" knob (N = 800 total, i.e.
	// 400 per class, is the paper's optimum). 0 uses everything.
	MaxPerClass int
	// TargetFRR sets the operating point: the decision threshold is the
	// TargetFRR quantile of the legitimate user's training scores, so
	// roughly that fraction of the owner's windows is rejected. The
	// default 0.03 mirrors the paper's operating point (FRR 0.9%, FAR 2.8%
	// measured on test data).
	TargetFRR float64
	// Seed drives impostor subsampling.
	Seed int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Rho == 0 {
		c.Rho = 1
	}
	if c.TargetFRR == 0 {
		c.TargetFRR = 0.03
	}
	return c
}

// Train is the training module of Section IV-A3: it fits the per-context
// (or unified) authentication models from the legitimate user's feature
// windows and the anonymized population's windows. It is Fit with the
// paper's KRR over the mode's feature vector.
func Train(legit, impostor []features.WindowSample, cfg TrainConfig) (*ModelBundle, error) {
	cfg = cfg.withDefaults()
	scorers, err := Fit(legit, impostor, cfg,
		func(s features.WindowSample) []float64 { return s.Vector(cfg.Mode.Combined) },
		func() *ml.KRR { return ml.NewKRR(cfg.Rho) })
	if err != nil {
		return nil, err
	}
	bundle := &ModelBundle{Mode: cfg.Mode, Models: make(map[string]*ContextModel, len(scorers))}
	for key, s := range scorers {
		bundle.Models[key] = &ContextModel{Std: s.Std, KRR: s.Clf, Threshold: s.Threshold}
	}
	return bundle, nil
}

// Scorer is one model as Fit trains it: the standardizer fitted on its
// training rows, the classifier, and the operating threshold.
type Scorer[C ml.BinaryClassifier] struct {
	Std       *stats.Standardizer
	Clf       C
	Threshold float64
}

// Score runs the model on a raw (unstandardized) feature vector: the
// classifier's decision value less the threshold, positive accepting.
func (s Scorer[C]) Score(vector []float64) (float64, error) {
	raw, err := s.Clf.Score(s.Std.Transform(vector))
	if err != nil {
		return 0, err
	}
	return raw - s.Threshold, nil
}

// Fit is Train's pipeline over any classifier and feature vector. It
// groups the windows by the coarse context each one carries (one unified
// group when cfg.Mode.UseContext is false), skipping a context that lacks
// either class, and fits one model per group, keyed as in ModelKeys. Each
// group samples up to cfg.MaxPerClass windows per class, standardizes
// them, fits newClassifier() and places the cfg.TargetFRR operating
// threshold on the training scores. The experiment harness calls Fit for
// the classifiers and vectors a ModelBundle cannot hold.
func Fit[C ml.BinaryClassifier](legit, impostor []features.WindowSample, cfg TrainConfig, vector func(features.WindowSample) []float64, newClassifier func() C) (map[string]Scorer[C], error) {
	cfg = cfg.withDefaults()
	if len(legit) == 0 {
		return nil, fmt.Errorf("core: no legitimate training windows")
	}
	if len(impostor) == 0 {
		return nil, fmt.Errorf("core: no impostor training windows")
	}

	type group struct {
		key      string
		legit    []features.WindowSample
		impostor []features.WindowSample
	}
	var groups []group
	if cfg.Mode.UseContext {
		legitByCtx := features.SplitByCoarseContext(legit)
		impostorByCtx := features.SplitByCoarseContext(impostor)
		for _, ctx := range []sensing.CoarseContext{sensing.CoarseStationary, sensing.CoarseMoving} {
			lg, im := legitByCtx[ctx], impostorByCtx[ctx]
			if len(lg) == 0 || len(im) == 0 {
				continue // no data for this context yet; the bundle stays partial
			}
			groups = append(groups, group{key: ctx.String(), legit: lg, impostor: im})
		}
		if len(groups) == 0 {
			return nil, fmt.Errorf("core: no context has both legitimate and impostor data")
		}
	} else {
		groups = append(groups, group{key: unifiedKey, legit: legit, impostor: impostor})
	}

	// The per-context models are independent given their data split, so
	// train them concurrently — on context mode this halves wall-clock
	// (the paper's stationary/moving pair). Each group gets its own RNG
	// derived from cfg.Seed and the group index, which keeps results
	// deterministic regardless of goroutine scheduling; group 0 seeds
	// with cfg.Seed itself, so single-group (unified) training subsamples
	// exactly as the sequential implementation did.
	scorers := make([]Scorer[C], len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g group, clf C) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(groupSeed(cfg.Seed, i)))
			scorers[i], errs[i] = fitOne(g.legit, g.impostor, cfg, vector, clf, rng)
		}(i, g, newClassifier())
	}
	wg.Wait()
	out := make(map[string]Scorer[C], len(groups))
	for i, g := range groups {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: train %s model: %w", g.key, errs[i])
		}
		out[g.key] = scorers[i]
	}
	return out, nil
}

// groupSeed derives a deterministic per-group RNG seed. Group 0 uses the
// configured seed unchanged (preserving unified-mode results bit-for-bit
// with the sequential trainer); later groups mix in the index with a
// splitmix64-style odd constant so nearby seeds do not collide. Every
// per-context training loop seeds its groups this way, so no group's
// sample depends on the order the groups are visited in.
func groupSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return seed + int64(i)*-0x61c8864680b583eb // 2^64 / golden ratio, as int64
}

// fitOne fits one group's standardizer and classifier and calibrates its
// threshold. The legitimate sample is drawn before the impostor one.
func fitOne[C ml.BinaryClassifier](legit, impostor []features.WindowSample, cfg TrainConfig, vector func(features.WindowSample) []float64, clf C, rng *rand.Rand) (Scorer[C], error) {
	legitVecs := sampleVectors(legit, vector, cfg.MaxPerClass, rng)
	impostorVecs := sampleVectors(impostor, vector, cfg.MaxPerClass, rng)

	x := make([][]float64, 0, len(legitVecs)+len(impostorVecs))
	y := make([]bool, 0, cap(x))
	x = append(x, legitVecs...)
	for range legitVecs {
		y = append(y, true)
	}
	x = append(x, impostorVecs...)
	for range impostorVecs {
		y = append(y, false)
	}

	std, err := stats.FitStandardizer(x)
	if err != nil {
		return Scorer[C]{}, fmt.Errorf("fit standardizer: %w", err)
	}
	xs := std.TransformAll(x)
	if err := clf.Fit(xs, y); err != nil {
		return Scorer[C]{}, fmt.Errorf("fit classifier: %w", err)
	}
	threshold, err := calibrate(clf, xs, y, cfg.TargetFRR)
	if err != nil {
		return Scorer[C]{}, fmt.Errorf("calibrate threshold: %w", err)
	}
	return Scorer[C]{Std: std, Clf: clf, Threshold: threshold}, nil
}

// calibrate scores the training set and delegates to operatingThreshold.
// The score slices are sized exactly up front (class sizes are known from
// y), avoiding the append-growth churn that showed up on the training
// profile for large N.
func calibrate(clf ml.BinaryClassifier, x [][]float64, y []bool, targetFRR float64) (float64, error) {
	nLegit := 0
	for _, isLegit := range y {
		if isLegit {
			nLegit++
		}
	}
	legit := make([]float64, 0, nLegit)
	impostor := make([]float64, 0, len(y)-nLegit)
	for i, row := range x {
		s, err := clf.Score(row)
		if err != nil {
			return 0, err
		}
		if y[i] {
			legit = append(legit, s)
		} else {
			impostor = append(impostor, s)
		}
	}
	return operatingThresholdSorted(legit, impostor, targetFRR), nil
}

// operatingThreshold places the decision threshold midway between the
// lower tail of the legitimate user's training scores (the targetFRR
// quantile) and the upper tail of the impostor population's scores (the
// matching 1-targetFRR quantile). When the classes are separated, the
// threshold lands in the gap between them — generalization headroom on
// both sides; when they overlap, it lands inside the overlap, balancing
// FRR against FAR around the paper's convenience-leaning operating point.
func operatingThreshold(legitScores, impostorScores []float64, targetFRR float64) float64 {
	// Exact-size copies (the caller's slices must not be reordered), then
	// sort in place — no append growth, no re-copying.
	legit := make([]float64, len(legitScores))
	copy(legit, legitScores)
	impostor := make([]float64, len(impostorScores))
	copy(impostor, impostorScores)
	return operatingThresholdSorted(legit, impostor, targetFRR)
}

// operatingThresholdSorted is operatingThreshold for score slices the
// caller owns: it sorts them in place and allocates nothing.
func operatingThresholdSorted(legit, impostor []float64, targetFRR float64) float64 {
	sort.Float64s(legit)
	sort.Float64s(impostor)
	p := clampFloat(targetFRR, 0, 1) * 100
	lo := stats.Percentile(legit, p)
	hi := stats.Percentile(impostor, 100-p)
	return (lo + hi) / 2
}

func clampFloat(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// sampleVectors extracts feature vectors, subsampling uniformly without
// replacement down to max when max > 0.
func sampleVectors(samples []features.WindowSample, vector func(features.WindowSample) []float64, max int, rng *rand.Rand) [][]float64 {
	idx := rng.Perm(len(samples))
	if max > 0 && max < len(idx) {
		idx = idx[:max]
	}
	out := make([][]float64, len(idx))
	for i, j := range idx {
		out[i] = vector(samples[j])
	}
	return out
}
